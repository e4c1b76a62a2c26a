package client

import "encoding/json"

// DecodeSettled, UnmarshalSettled, OneScan and ScanValue expose the POST /jobs?wait
// decoders to the tests and benchmarks of package client_test, which can
// import internal/simd for a real daemon's answer.
func DecodeSettled(data []byte) error { _, err := decodeSettled(data); return err }

func UnmarshalSettled(data []byte) error {
	var ans settled
	return json.Unmarshal(data, &ans)
}

func OneScan(data []byte) bool { _, ok := oneScan(data); return ok }

// ScanValue reports whether data is one JSON value the one-scan path's
// scanner accepts.
func ScanValue(data []byte) bool {
	n := scanValue(data, 0, scanDepth)
	return n >= 0 && skipSpace(data, n) == len(data)
}

const RaceEnabled = raceEnabled

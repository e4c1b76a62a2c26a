package client

import "encoding/json"

// DecodeSettled, UnmarshalSettled and OneScan expose the POST /jobs?wait
// decoders to the tests and benchmarks of package client_test, which can
// import internal/simd for a real daemon's answer.
func DecodeSettled(data []byte) error { _, err := decodeSettled(data); return err }

func UnmarshalSettled(data []byte) error {
	var ans settled
	return json.Unmarshal(data, &ans)
}

func OneScan(data []byte) bool { _, ok := oneScan(data); return ok }

package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
)

// Canonical JSON. The simd result cache and JobSpec content addressing
// both treat a JSON document's bytes as identity, so the encoding must
// be a pure function of the document's *value*: object keys sorted, no
// insignificant whitespace, and numbers re-emitted verbatim from their
// source literals (round-tripping int64/uint64 through float64 would
// corrupt values above 2^53 — seeds and nanosecond counters live there).

// CanonicalJSON re-encodes one JSON document in canonical form. The
// input must be a single well-formed document; trailing data is an
// error.
func CanonicalJSON(in []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(in))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("metrics: canonicalize: %w", err)
	}
	// Only whitespace may follow: Decoder.More is false in front of a
	// closing bracket, so it cannot tell `{"a":1}]` from `{"a":1}`.
	if len(bytes.TrimLeft(in[dec.InputOffset():], " \t\r\n")) != 0 {
		return nil, fmt.Errorf("metrics: canonicalize: trailing data after JSON document")
	}
	var buf bytes.Buffer
	if err := writeCanonical(&buf, v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// writeCanonical emits v (a json.Decoder value tree) canonically.
func writeCanonical(buf *bytes.Buffer, v any) error {
	switch x := v.(type) {
	case nil:
		buf.WriteString("null")
	case bool:
		if x {
			buf.WriteString("true")
		} else {
			buf.WriteString("false")
		}
	case json.Number:
		buf.WriteString(x.String())
	case string:
		b, err := json.Marshal(x)
		if err != nil {
			return err
		}
		buf.Write(b)
	case []any:
		buf.WriteByte('[')
		for i, e := range x {
			if i > 0 {
				buf.WriteByte(',')
			}
			if err := writeCanonical(buf, e); err != nil {
				return err
			}
		}
		buf.WriteByte(']')
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		buf.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				buf.WriteByte(',')
			}
			kb, err := json.Marshal(k)
			if err != nil {
				return err
			}
			buf.Write(kb)
			buf.WriteByte(':')
			if err := writeCanonical(buf, x[k]); err != nil {
				return err
			}
		}
		buf.WriteByte('}')
	default:
		return fmt.Errorf("metrics: canonicalize: unexpected value type %T", v)
	}
	return nil
}

// MarshalStable encodes the report in canonical JSON (sorted keys,
// compact, numbers exact), so equal reports marshal to identical bytes and
// the simd cache can serve stored bytes as the result. Every struct in a
// Report declares its fields in JSON-key order, as run.Spec does, so this
// is json.Marshal; its bytes are canonical for valid-UTF-8 strings, which
// every report string (a closed-set name or a label set in code) is.
func (r *Report) MarshalStable() ([]byte, error) {
	return json.Marshal(r)
}

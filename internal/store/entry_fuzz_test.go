package store

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzStoreEntry checks the entry frame from both ends. Forwards: any
// payload survives encode → decode, and the frame with any one byte
// changed is rejected as corrupt — the property quarantine rests on.
// Backwards: arbitrary bytes read as a frame never panic, and what decode
// accepts is exactly what encode would have written for that payload.
func FuzzStoreEntry(f *testing.F) {
	f.Add([]byte(`{"schema":"cagvt.run-report/1"}`), uint(0), byte(1))
	f.Add([]byte{}, uint(7), byte(0x80))
	f.Add([]byte("\x00\xff\n\n"), uint(70), byte(0x20))
	f.Add(encode([]byte("a frame as payload")), uint(3), byte(0xff))
	f.Add([]byte(entryMagic), uint(1000), byte(4))
	f.Fuzz(func(t *testing.T, data []byte, at uint, flip byte) {
		frame := encode(data)
		got, err := decode(frame)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("decode(encode(p)) = %q, %v; want p = %q", got, err, data)
		}
		if flip != 0 {
			bad := bytes.Clone(frame)
			bad[at%uint(len(bad))] ^= flip
			if _, err := decode(bad); !errors.Is(err, errCorrupt) {
				t.Fatalf("frame with byte %d flipped by %#x decoded: err %v", at%uint(len(bad)), flip, err)
			}
		}
		if payload, err := decode(data); err == nil {
			if !bytes.Equal(encode(payload), data) {
				t.Fatalf("decode accepted %q, which is not the frame of its payload", data)
			}
		} else if !errors.Is(err, errCorrupt) {
			t.Fatalf("decode(%q) failed with %v, want errCorrupt", data, err)
		}
	})
}

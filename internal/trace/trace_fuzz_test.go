package trace

import (
	"bytes"
	"io"
	"testing"
)

// decodeAll reads a stream to its end, returning the records, the error
// that stopped it (nil at a clean EOF) and the reader's final offset.
func decodeAll(data []byte) ([]any, error, int64) {
	r := NewReader(bytes.NewReader(data))
	var recs []any
	for {
		rec, err := r.next()
		if err == io.EOF {
			return recs, nil, r.offset()
		}
		if err != nil {
			return recs, err, r.offset()
		}
		recs = append(recs, rec)
	}
}

// encodeAll writes records back through the Writer.
func encodeAll(t *testing.T, recs []any) []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, rec := range recs {
		switch v := rec.(type) {
		case Commit:
			w.Commit(v)
		case Round:
			w.Round(v)
		case Rollback:
			w.Rollback(v)
		case MPISend:
			w.MPISend(v)
		case MPIRecv:
			w.MPIRecv(v)
		case Phase:
			w.Phase(v)
		case Fault:
			w.Fault(v)
		case Migration:
			w.Migration(v)
		default:
			t.Fatalf("Next returned a %T", rec)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzTraceReader feeds the reader arbitrary bytes — a truncated file, a
// file that is no trace, a record type from a newer writer. It must not
// panic, it must stop at an offset inside the input, and whatever it did
// decode cleanly must survive the Writer: written back and read again it
// is the same records, byte for byte from then on. Analyze must accept
// every stream the reader accepts, at a bucket count of 1 to 64 taken
// from the input's last byte, without panicking.
func FuzzTraceReader(f *testing.F) {
	var sample bytes.Buffer
	w := NewWriter(&sample)
	w.Commit(Commit{LP: 3, T: 1.5, Src: 2, Seq: 9})
	w.Round(Round{Round: 1, GVT: 1.25, AtNanos: 40, Sync: true, Efficiency: 0.5})
	w.Rollback(Rollback{Worker: 1, LP: 3, Anti: true, Depth: 2, From: 2, To: 1, AtNanos: 50})
	w.MPISend(MPISend{Src: 0, Dst: 1, Bytes: 48, QueueDepth: 1, AtNanos: 60})
	w.MPIRecv(MPIRecv{Src: 0, Dst: 1, Bytes: 48, AtNanos: 70})
	w.Phase(Phase{Worker: 1, Phase: 2, AtNanos: 80})
	w.Fault(Fault{Kind: 1, Src: 0, Dst: 1, AtNanos: 90, DelayNanos: 5})
	w.Migration(Migration{LP: 3, SrcNode: 0, DstNode: 1, Round: 1, Events: 4, AtNanos: 100})
	w.Flush()
	whole := sample.Bytes()
	f.Add(whole)
	f.Add(whole[:len(whole)-3])                                 // torn last record
	f.Add(whole[:headerLen])                                    // header only
	f.Add(whole[:headerLen-2])                                  // torn header
	f.Add([]byte{})                                             // empty: reads as a current-version stream
	f.Add([]byte("not a trace"))                                // bad magic
	f.Add(append(append([]byte{}, whole[:4]...), 0x63, 0x00))   // unknown version
	f.Add(append(append([]byte{}, whole[:headerLen]...), 0xEE)) // unknown record type

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err, off := decodeAll(data)
		if off < 0 || off > int64(len(data)) {
			t.Fatalf("reader stopped at offset %d of a %d-byte input (err %v)", off, len(data), err)
		}
		if err != nil {
			return
		}
		buckets := 1
		if len(data) > 0 {
			buckets += int(data[len(data)-1]) % 64
		}
		if _, err := Analyze(bytes.NewReader(data), buckets); err != nil {
			t.Fatalf("the reader accepted the stream but Analyze refused it: %v", err)
		}
		again := encodeAll(t, recs)
		recs2, err, _ := decodeAll(again)
		if err != nil || len(recs2) != len(recs) {
			t.Fatalf("a stream the Writer produced did not read back: %d records, then %d (err %v)", len(recs), len(recs2), err)
		}
		if third := encodeAll(t, recs2); !bytes.Equal(third, again) {
			t.Fatalf("round trip is not stable:\n%x\n%x", again, third)
		}
	})
}

package simd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"repro/internal/run"
)

// JobSpec is the service's name for the run descriptor: a job is one
// run.Spec, content-addressed by its canonical hash.
type JobSpec = run.Spec

// Service-side admission caps: the job server refuses specs that would
// monopolize a worker for an unreasonable time. Generous enough for
// every experiment in EXPERIMENTS.md. They are service policy, not part
// of what a spec means, so the CLIs are not bound by them.
const (
	maxTotalLPs = 1 << 16
	maxNodes    = 64
	maxEndTime  = 1e5
)

// admissible checks an already-canonical spec against the caps.
func admissible(c JobSpec) error {
	if c.Nodes > maxNodes {
		return fmt.Errorf("simd: %d nodes exceeds the service cap of %d", c.Nodes, maxNodes)
	}
	if n := c.Topology().TotalLPs(); n > maxTotalLPs {
		return fmt.Errorf("simd: %d total LPs exceeds the service cap of %d", n, maxTotalLPs)
	}
	if c.EndTime > maxEndTime {
		return fmt.Errorf("simd: end_time %v exceeds the service cap of %v", c.EndTime, float64(maxEndTime))
	}
	return nil
}

// The memo holds at most specMemoCap bodies of at most specMemoBody bytes
// each (a spec is a few hundred); a full memo is emptied.
const specMemoCap, specMemoBody = 1024, 4 << 10

// addressed is a spec's canonical form, its canonical JSON (which the
// journal's begin records) and its content address.
type addressed struct {
	canon JobSpec
	raw   []byte
	hash  string
}

// bodyReader reads at most MaxSpecBytes of a body, and rd the bytes read
// to the decoder, which fills spec; pooled, it allocates nothing.
type bodyReader struct {
	lim  io.LimitedReader
	buf  bytes.Buffer
	rd   bytes.Reader
	spec JobSpec
}

var bodyReaders = sync.Pool{New: func() any { return new(bodyReader) }}

// DecodeSpec is the job API's one spec decoder, at the daemon and at the
// router: it reads at most MaxSpecBytes of body, decodes a JobSpec with
// unknown fields refused, and addresses it (canonical form, canonical
// JSON and content address, as JobSpec.Address).
func DecodeSpec(body io.Reader) (canon JobSpec, raw []byte, hash string, err error) {
	a, err := decodeSpec(body, nil)
	return a.canon, a.raw, a.hash, err
}

// submitBody submits the JobSpec a body holds (decodeSpec, through the
// server's memo).
func (s *Server) submitBody(body io.Reader) (SubmitResult, error) {
	a, err := decodeSpec(body, s)
	if err != nil {
		return SubmitResult{}, err
	}
	return s.submit(a)
}

// decodeSpec is DecodeSpec. With a server, a body it has seen before
// takes its address from the server's memo, skipping the decode,
// Canonical and SHA-256; only a body that decoded and addressed cleanly
// enters it, so a bad one is refused alike every time.
func decodeSpec(body io.Reader, s *Server) (a addressed, err error) {
	br := bodyReaders.Get().(*bodyReader)
	defer bodyReaders.Put(br)
	br.lim = io.LimitedReader{R: body, N: MaxSpecBytes}
	br.buf.Reset()
	_, err = br.buf.ReadFrom(&br.lim)
	br.lim.R = nil
	if err != nil {
		return a, fmt.Errorf("bad job spec: %v", err)
	}
	raw := br.buf.Bytes()
	ok := false
	if s != nil {
		s.memoMu.Lock()
		a, ok = s.memo[string(raw)]
		s.memoMu.Unlock()
	}
	if ok {
		return a, nil
	}
	br.rd.Reset(raw)
	br.spec = JobSpec{}
	dec := json.NewDecoder(&br.rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&br.spec); err != nil {
		return a, fmt.Errorf("bad job spec: %v", err)
	}
	if a.canon, a.raw, a.hash, err = br.spec.Address(); err != nil {
		return a, err
	}
	if s != nil && len(raw) <= specMemoBody {
		s.memoMu.Lock()
		if len(s.memo) >= specMemoCap {
			clear(s.memo)
		}
		s.memo[string(raw)] = a
		s.memoMu.Unlock()
	}
	return a, nil
}

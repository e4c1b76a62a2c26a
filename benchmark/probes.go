package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/event"
	"repro/internal/eventq"
	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/simd"
	"repro/internal/simdcluster"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/vtime"
	"repro/pkg/client"
)

// The layer probes: small fixed-count drivers that call one layer's
// public API in the pattern the engines and the service use, and report
// host time and allocations per operation. They do not depend on the
// workload; every traced run makes them once.

// timeOps runs fn, which performs n operations, and returns host ns and
// heap allocations per operation.
func timeOps(n int, fn func()) (nsPerOp, allocsPerOp float64) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	d := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(d) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// simRun spawns procs simulated threads running body and runs the
// kernel to completion.
func simRun(procs int, body func(p *sim.Proc, id int)) {
	env := sim.NewEnv()
	for i := 0; i < procs; i++ {
		env.Spawn(fmt.Sprintf("probe-%d", i), func(p *sim.Proc) { body(p, i) })
	}
	if err := env.Run(); err != nil {
		panic(err)
	}
}

// runProbes makes every probe and returns its metrics. n scales the
// operation counts (1 for a real run, less for smoke).
func runProbes(o options) (map[string]value, error) {
	scale := 1.0
	if o.smoke {
		scale = 0.02
	}
	n := func(full int) int { return max(8, int(float64(full)*scale)) }
	out := make(map[string]value)
	put := func(name, unit string, v float64, ops int) { out[name] = exactValue(v, unit, ops) }

	// sim: twenty threads interleaving Advance, as a cluster of workers
	// does; then one alone, whose wake-up is always the heap minimum.
	ops := n(200_000)
	ns, allocs := timeOps(ops, func() {
		simRun(20, func(p *sim.Proc, id int) {
			for i := 0; i < ops/20; i++ {
				p.Advance(sim.Time(100 + 7*id))
			}
		})
	})
	put("sim.advance_ns", "ns", ns, ops)
	put("sim.allocs_per_advance", "count", allocs, ops)
	ns, _ = timeOps(ops, func() {
		simRun(1, func(p *sim.Proc, _ int) {
			for i := 0; i < ops; i++ {
				p.Advance(100)
			}
		})
	})
	put("sim.advance_solo_ns", "ns", ns, ops)

	ops = n(1_000_000)
	ns, _ = timeOps(ops, func() {
		var mu sim.Mutex
		simRun(1, func(p *sim.Proc, _ int) {
			for i := 0; i < ops; i++ {
				mu.Lock(p)
				mu.Unlock(p)
			}
		})
	})
	put("sim.mutex_ns", "ns", ns, ops)
	ops = n(80_000)
	ns, _ = timeOps(ops, func() {
		mu := sim.Mutex{Name: "probe"}
		simRun(4, func(p *sim.Proc, _ int) {
			for i := 0; i < ops/4; i++ {
				mu.Lock(p)
				p.Advance(100) // hold it across a yield so the others queue up
				mu.Unlock(p)
			}
		})
	})
	put("sim.mutex_contended_ns", "ns", ns, ops)
	ns, _ = timeOps(ops, func() {
		b := sim.NewBarrier("probe", 4)
		simRun(4, func(p *sim.Proc, id int) {
			for i := 0; i < ops/4; i++ {
				p.Advance(sim.Time(50 + id))
				b.Wait(p)
			}
		})
	})
	put("sim.barrier_ns", "ns", ns, ops)
	ns, _ = timeOps(ops, func() {
		q := sim.Queue{Name: "probe"}
		simRun(2, func(p *sim.Proc, id int) {
			for i := 0; i < ops; i++ {
				if id == 0 {
					q.Get(p) // blocks: the producer is always a step behind
				} else {
					p.Advance(100)
					q.Put(p, i)
				}
			}
		})
	})
	put("sim.queue_putget_ns", "ns", ns, ops)
	ops = n(20_000)
	ns, _ = timeOps(ops, func() { simRun(ops, func(*sim.Proc, int) {}) })
	put("sim.spawn_us", "us", ns/1e3, ops)

	// fabric: send → delivery handler, one packet in flight at a time.
	ops = n(200_000)
	ns, _ = timeOps(ops, func() {
		env := sim.NewEnv()
		f := fabric.New(env, 2, fabric.EthernetDefaults())
		delivered := 0
		f.Attach(0, func(fabric.Packet) {})
		f.Attach(1, func(fabric.Packet) { delivered++ })
		env.Spawn("sender", func(p *sim.Proc) {
			for i := 0; i < ops; i++ {
				f.Send(fabric.Packet{Src: 0, Dst: 1, Tag: 1, Size: 64})
				p.Advance(sim.Microsecond)
			}
		})
		if err := env.Run(); err != nil || delivered != ops {
			panic(fmt.Sprintf("fabric probe: delivered %d of %d (%v)", delivered, ops, err))
		}
	})
	put("fabric.send_ns", "ns", ns, ops)

	// mpi: the data plane (Send → RecvFrom between two ranks), then the
	// collectives the GVT algorithms and the window protocol use.
	ops = n(50_000)
	ns, allocs = timeOps(ops, func() {
		env := sim.NewEnv()
		w := mpi.NewWorld(env, 2, fabric.EthernetDefaults(), mpi.DefaultCosts())
		env.Spawn("rank0", func(p *sim.Proc) {
			for i := 0; i < ops; i++ {
				w.Rank(0).Send(p, 1, mpi.TagUser, 64, i)
			}
		})
		env.Spawn("rank1", func(p *sim.Proc) {
			for i := 0; i < ops; i++ {
				w.Rank(1).RecvFrom(p, 0, mpi.TagUser)
			}
		})
		if err := env.Run(); err != nil {
			panic(err)
		}
	})
	put("mpi.sendrecv_ns", "ns", ns, ops)
	put("mpi.allocs_per_msg", "count", allocs, ops)
	collective := func(call func(r *mpi.Rank, p *sim.Proc)) float64 {
		rounds := n(5_000)
		ns, _ := timeOps(rounds, func() {
			env := sim.NewEnv()
			w := mpi.NewWorld(env, 4, fabric.EthernetDefaults(), mpi.DefaultCosts())
			for r := 0; r < 4; r++ {
				rank := w.Rank(r)
				env.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
					for i := 0; i < rounds; i++ {
						call(rank, p)
					}
				})
			}
			if err := env.Run(); err != nil {
				panic(err)
			}
		})
		return ns / 1e3
	}
	put("mpi.allreduce_us", "us", collective(func(r *mpi.Rank, p *sim.Proc) { r.AllreduceSum(p, 1) }), n(5_000))
	put("mpi.barrier_us", "us", collective(func(r *mpi.Rank, p *sim.Proc) { r.Barrier(p) }), n(5_000))

	// eventq: the hold model (pop the minimum, push a successor) at
	// 1,024 resident events, and anti-message annihilation.
	const resident = 1024
	hold := func(kind string) float64 {
		ops := n(1_000_000)
		q := eventq.New(kind)
		r := rand.New(rand.NewSource(1))
		pool := event.NewPool(false)
		for i := 0; i < resident; i++ {
			e := pool.Get()
			e.Stamp = vtime.Stamp{T: r.Float64() * 100, Src: uint32(i), Seq: uint64(i)}
			q.Push(e)
		}
		ns, _ := timeOps(ops, func() {
			for i := 0; i < ops; i++ {
				e := q.Pop()
				e.Stamp = vtime.Stamp{T: e.Stamp.T + r.Float64()*10, Src: uint32(i % resident), Seq: uint64(resident + i)}
				q.Push(e)
			}
		})
		return ns
	}
	put("eventq.heap_hold_ns", "ns", hold("heap"), n(1_000_000))
	put("eventq.calendar_hold_ns", "ns", hold("calendar"), n(1_000_000))
	ops = n(100_000)
	{
		q := eventq.NewHeap()
		r := rand.New(rand.NewSource(1))
		for i := 0; i < resident; i++ {
			q.Push(&event.Event{Stamp: vtime.Stamp{T: r.Float64() * 100, Src: uint32(i), Seq: uint64(i)},
				Src: event.LPID(i), MatchID: uint64(i + 1)})
		}
		anti := &event.Event{Anti: true}
		ns, _ = timeOps(ops, func() {
			for i := 0; i < ops; i++ {
				k := r.Intn(resident)
				anti.Src, anti.MatchID = event.LPID(k), uint64(k+1)
				e := q.RemoveMatching(anti)
				q.Push(e)
			}
		})
	}
	put("eventq.remove_matching_ns", "ns", ns, ops)

	// event: the wire codec and the free list.
	ops = n(1_000_000)
	ev := &event.Event{Stamp: vtime.Stamp{T: 1.5, Src: 3, Seq: 9}, SendTime: 1, Src: 3, Dst: 4, MatchID: 77}
	buf := make([]byte, 0, 128)
	ns, _ = timeOps(ops, func() {
		for i := 0; i < ops; i++ {
			buf = ev.Encode(buf[:0])
		}
	})
	put("event.encode_ns", "ns", ns, ops)
	ns, _ = timeOps(ops, func() {
		for i := 0; i < ops; i++ {
			if _, _, err := event.Decode(buf); err != nil {
				panic(err)
			}
		}
	})
	put("event.decode_ns", "ns", ns, ops)
	ns, _ = timeOps(ops, func() {
		pool := event.NewPool(false)
		for i := 0; i < ops; i++ {
			pool.Put(pool.Get())
		}
	})
	put("event.pool_getput_ns", "ns", ns, ops)

	// rng and trace: one draw; one commit record into a discarding writer.
	ns, _ = timeOps(ops, func() {
		s := rng.New(1)
		for i := 0; i < ops; i++ {
			s.Exp(1)
		}
	})
	put("rng.exp_ns", "ns", ns, ops)
	ns, _ = timeOps(ops, func() {
		w := trace.NewWriter(io.Discard)
		for i := 0; i < ops; i++ {
			w.Commit(trace.Commit{LP: uint32(i), T: float64(i), Src: 1, Seq: uint64(i)})
		}
	})
	put("trace.commit_write_ns", "ns", ns, ops)

	// store, simd and simdcluster need a directory and sockets.
	tmp := filepath.Join(o.outDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return out, err
	}
	if err := storeProbes(tmp, n, put); err != nil {
		return out, err
	}
	if err := simdProbes(n, put); err != nil {
		return out, err
	}
	if err := clusterProbes(tmp, n, put); err != nil {
		return out, err
	}
	return out, nil
}

type putFunc func(name, unit string, v float64, ops int)

// storeProbes times a 4 KiB publish (temp file, fsync, rename under the
// lock), a read, and a journal begin+end pair (two fsynced appends).
func storeProbes(tmp string, n func(int) int, put putFunc) error {
	dir, err := os.MkdirTemp(tmp, "probe-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(store.Options{Dir: filepath.Join(dir, "store")})
	if err != nil {
		return err
	}
	defer st.Close()
	payload := make([]byte, 4096)
	hashes := make([]string, n(200))
	for i := range hashes {
		hashes[i] = fmt.Sprintf("%064x", splitmix64(uint64(i)))
	}
	var perr error
	ns, _ := timeOps(len(hashes), func() {
		for _, h := range hashes {
			if err := st.Put(h, payload); err != nil {
				perr = err
			}
		}
	})
	if perr != nil {
		return perr
	}
	put("store.put_us", "us", ns/1e3, len(hashes))
	ops := n(5_000)
	ns, _ = timeOps(ops, func() {
		for i := 0; i < ops; i++ {
			if _, ok := st.Get(hashes[i%len(hashes)]); !ok {
				perr = fmt.Errorf("store probe: entry %d missing", i%len(hashes))
			}
		}
	})
	if perr != nil {
		return perr
	}
	put("store.get_us", "us", ns/1e3, ops)

	jr, err := store.OpenJournal(filepath.Join(dir, "journal.ndjson"), nil, nil)
	if err != nil {
		return err
	}
	defer jr.Close()
	spec := json.RawMessage(`{"model":"phold"}`)
	ns, _ = timeOps(len(hashes), func() {
		for _, h := range hashes {
			if err := jr.Begin(h, spec); err != nil {
				perr = err
			}
			if err := jr.End(h, "done"); err != nil {
				perr = err
			}
		}
	})
	put("store.journal_begin_end_us", "us", ns/1e3, len(hashes))
	return perr
}

// simdProbes times the service's in-process layers with no HTTP and no
// store: canonicalise+hash, an LRU lookup, Submit on a hit, and
// Submit+Wait on a miss of the tiny spec.
func simdProbes(n func(int) int, put putFunc) error {
	var perr error
	ops := n(5_000)
	ns, _ := timeOps(ops, func() {
		for i := 0; i < ops; i++ {
			if _, err := (simd.JobSpec{Seed: uint64(i + 1)}).Hash(); err != nil {
				perr = err
			}
		}
	})
	put("simd.canonical_hash_us", "us", ns/1e3, ops)

	cache := simd.NewCache(1 << 20)
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", splitmix64(uint64(i)))
		cache.Put(keys[i], make([]byte, 1024))
	}
	ops = n(1_000_000)
	ns, _ = timeOps(ops, func() {
		for i := 0; i < ops; i++ {
			cache.Get(keys[i%len(keys)])
		}
	})
	put("simd.cache_get_ns", "ns", ns, ops)

	srv := simd.NewServer(simd.Options{Workers: 2})
	defer srv.Close()
	submitWait := func(spec simd.JobSpec) {
		res, err := srv.Submit(spec)
		if err != nil {
			perr = err
			return
		}
		if st := res.Job.Wait(context.Background()); st != simd.StateDone {
			perr = fmt.Errorf("simd probe: job %s ended %s", res.Job.ID(), st)
		}
	}
	hot := tinySpec(1)
	submitWait(hot)
	ops = n(20_000)
	ns, _ = timeOps(ops, func() {
		for i := 0; i < ops; i++ {
			if res, err := srv.Submit(hot); err != nil || !res.CacheHit {
				perr = fmt.Errorf("simd probe: submit %d was not a cache hit (%v)", i, err)
			}
		}
	})
	put("simd.submit_hit_us", "us", ns/1e3, ops)
	ops = n(200)
	ns, _ = timeOps(ops, func() {
		for i := 0; i < ops; i++ {
			submitWait(tinySpec(uint64(1000 + i)))
		}
	})
	put("simd.submit_miss_ms", "ms", ns/1e6, ops)
	return perr
}

// clusterProbes times rendezvous ranking and what one router hop adds
// to a hit: the median Submit+Report latency through an in-process
// simdcluster router fronting a member, minus the same against the
// member directly.
func clusterProbes(tmp string, n func(int) int, put putFunc) error {
	nodes := []string{"n1", "n2", "n3"}
	key := fmt.Sprintf("%064x", splitmix64(42))
	ops := n(50_000)
	ns, _ := timeOps(ops, func() {
		for i := 0; i < ops; i++ {
			simdcluster.Rank(nodes, key)
		}
	})
	put("simdcluster.rank_ns", "ns", ns, ops)

	member, err := startService(tmp, nil, "")
	if err != nil {
		return err
	}
	defer member.close()
	cl := simdcluster.New(simdcluster.Options{HealthInterval: 20 * time.Millisecond})
	defer cl.Close()
	cl.AddMember("n1", member.base, 0)
	if err := cl.WaitUp("n1", 10*time.Second); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	router := &http.Server{Handler: cl.Handler()}
	served := make(chan error, 1)
	go func() { served <- router.Serve(ln) }()
	defer func() {
		router.Close()
		<-served
	}()
	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	viaRouter := client.New("http://"+ln.Addr().String(), client.WithHTTPClient(&http.Client{Transport: transport}))

	ctx := context.Background()
	spec := tinySpec(7)
	if _, _, err := member.client.Run(ctx, spec); err != nil {
		return err
	}
	hit := func(c *client.Client) (float64, error) {
		t0 := time.Now()
		sub, err := c.Submit(ctx, spec)
		if err != nil {
			return 0, err
		}
		if _, err := c.Report(ctx, sub.ID); err != nil {
			return 0, err
		}
		return float64(time.Since(t0)) / 1e3, nil
	}
	ops = n(2_000)
	var direct, routed []float64
	for i := 0; i < ops; i++ {
		d, err := hit(member.client)
		if err != nil {
			return err
		}
		r, err := hit(viaRouter)
		if err != nil {
			return err
		}
		direct, routed = append(direct, d), append(routed, r)
	}
	put("simdcluster.hop_us", "us", percentile(routed, 0.5)-percentile(direct, 0.5), ops)
	return nil
}

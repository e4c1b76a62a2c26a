// Command simdcluster runs N simd daemons as one service: it spawns
// and supervises the member processes, health-gates their membership
// (a node joins the routing ring only after /healthz passes), and
// serves the cluster router — jobs shard across members by their spec
// content address, repeat submissions route to the member whose
// caches already hold the result, and when a member dies or drains
// its unfinished jobs re-dispatch to live replicas. Members share one
// store directory (each with its own journal), so failover re-runs
// resolve as store hits with byte-identical reports.
//
// The router's API is shaped like a single simd daemon (POST /jobs,
// GET /jobs/{id}, /report, /stats, /metrics, /healthz) plus cluster
// verbs: GET /nodes for membership and POST/DELETE
// /nodes/{id}/drain. Point simtop at it unchanged.
//
// Examples:
//
//	simdcluster                              # 3 members on :8090
//	simdcluster -nodes 5 -addr :9000 -store-dir /var/lib/simd
//	simdcluster -workers 4 -queue 128        # per-member pool sizing
//	simdcluster -replicas 2                  # cap dispatch attempts per job
//
// A crashed member is respawned (same node identity, same journal, new
// port) and re-passes the health gate before receiving work again.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/simd"
	"repro/internal/simdcluster"
)

// config is the router's Options, which -replicas, -health-interval and
// -fail-threshold fill directly, and what the supervisor needs.
type config struct {
	simdcluster.Options
	nodes          int
	addr           string
	storeDir       string
	simdBin        string
	workers, queue int
	restart        bool
}

func main() {
	var cfg config
	flag.IntVar(&cfg.nodes, "nodes", 3, "simd member processes to spawn and supervise")
	flag.StringVar(&cfg.addr, "addr", ":8090", "router HTTP listen address")
	flag.StringVar(&cfg.storeDir, "store-dir", "", "shared content-addressed store directory (default: a fresh temp dir, logged at startup)")
	flag.IntVar(&cfg.Replicas, "replicas", 0, "candidate members tried per dispatch before giving up (0: all eligible)")
	flag.StringVar(&cfg.simdBin, "simd-bin", "", "simd binary to spawn (default: sibling of this executable, then $PATH)")
	flag.IntVar(&cfg.workers, "workers", 2, "workers per member")
	flag.IntVar(&cfg.queue, "queue", 64, "queue depth per member")
	flag.DurationVar(&cfg.HealthInterval, "health-interval", 500*time.Millisecond, "member health probe cadence")
	flag.IntVar(&cfg.FailThreshold, "fail-threshold", 3, "consecutive probe failures demoting a member to down")
	flag.BoolVar(&cfg.restart, "restart", true, "respawn crashed members")
	simd.Main("simdcluster", func(logger *slog.Logger) error { return run(cfg, logger) })
}

// findSimd resolves the member binary: an explicit flag, the sibling
// of this executable, then $PATH.
func findSimd(explicit string) (string, error) {
	if explicit != "" {
		return explicit, nil
	}
	if self, err := os.Executable(); err == nil {
		sib := filepath.Join(filepath.Dir(self), "simd")
		if st, err := os.Stat(sib); err == nil && !st.IsDir() {
			return sib, nil
		}
	}
	if p, err := exec.LookPath("simd"); err == nil {
		return p, nil
	}
	return "", errors.New("no simd binary found; build cmd/simd or pass -simd-bin")
}

// memberProc is one supervised simd process.
type memberProc struct {
	id   string
	cmd  *exec.Cmd
	addr string
}

// supervisor spawns member daemons, registers them with the cluster,
// and respawns the ones that die (unless it is shutting down).
type supervisor struct {
	cfg     config
	bin     string
	log     *slog.Logger
	cluster *simdcluster.Cluster

	mu       sync.Mutex
	procs    map[string]*memberProc
	stopping atomic.Bool
	wg       sync.WaitGroup
}

// spawn starts one member on an ephemeral port, waits for its
// "simd listening" line, and registers it with the cluster (as
// starting — traffic waits for the health gate).
func (s *supervisor) spawn(id string) error {
	journal := filepath.Join(s.cfg.storeDir, "journal-"+id+".ndjson")
	cmd := exec.Command(s.bin,
		"-addr", "127.0.0.1:0",
		"-node-id", id,
		"-store-dir", s.cfg.storeDir,
		"-journal", journal,
		"-workers", fmt.Sprint(s.cfg.workers),
		"-queue", fmt.Sprint(s.cfg.queue),
		"-log-format", "json",
	)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	addrCh := make(chan string, 1)
	go func() {
		// Forward member logs verbatim (they are already structured and
		// carry node_id), watching for the listening line.
		sc := newLineScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(os.Stderr, line)
			if addr, ok := parseListening(line); ok {
				select {
				case addrCh <- addr:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		p := &memberProc{id: id, cmd: cmd, addr: addr}
		s.mu.Lock()
		s.procs[id] = p
		s.mu.Unlock()
		s.cluster.AddMember(id, "http://"+addr, cmd.Process.Pid)
		s.wg.Add(1)
		go s.watch(p)
		return nil
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		return fmt.Errorf("member %s never logged its address", id)
	}
}

// watch reaps the member process and respawns it after a crash. The
// health loop handles the failover; the respawned process re-passes
// the gate (replaying its journal against the shared store) before it
// takes traffic again.
func (s *supervisor) watch(p *memberProc) {
	defer s.wg.Done()
	err := p.cmd.Wait()
	if s.stopping.Load() {
		return
	}
	s.log.Warn("cluster member process exited", "node_id", p.id, "error", fmt.Sprint(err))
	if !s.cfg.restart {
		return
	}
	time.Sleep(2 * time.Second)
	if s.stopping.Load() {
		return
	}
	if err := s.spawn(p.id); err != nil {
		s.log.Error("cluster member respawn failed", "node_id", p.id, "error", err.Error())
	}
}

// stop terminates every member: SIGTERM for a graceful drain, SIGKILL
// for stragglers still running long simulations after the grace
// period.
func (s *supervisor) stop(grace time.Duration) {
	s.stopping.Store(true)
	s.mu.Lock()
	procs := make([]*memberProc, 0, len(s.procs))
	for _, p := range s.procs {
		procs = append(procs, p)
	}
	s.mu.Unlock()
	for _, p := range procs {
		p.cmd.Process.Signal(syscall.SIGTERM)
	}
	deadline := time.After(grace)
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-deadline:
		for _, p := range procs {
			p.cmd.Process.Signal(syscall.SIGKILL)
		}
		<-done
	}
}

func run(cfg config, logger *slog.Logger) error {
	if cfg.nodes < 1 {
		return errors.New("-nodes must be at least 1")
	}
	bin, err := findSimd(cfg.simdBin)
	if err != nil {
		return err
	}
	if cfg.storeDir == "" {
		dir, err := os.MkdirTemp("", "simdcluster-store-")
		if err != nil {
			return err
		}
		cfg.storeDir = dir
	}
	if err := os.MkdirAll(cfg.storeDir, 0o755); err != nil {
		return err
	}

	cfg.Logger = logger
	cluster := simdcluster.New(cfg.Options)
	defer cluster.Close()
	sup := &supervisor{cfg: cfg, bin: bin, log: logger, cluster: cluster, procs: make(map[string]*memberProc)}
	// Whatever ends run, no member outlives it; after the graceful stop
	// below this finds nothing left to do.
	defer sup.stop(5 * time.Second)

	for i := 1; i <= cfg.nodes; i++ {
		if err := sup.spawn(fmt.Sprintf("n%d", i)); err != nil {
			return err
		}
	}
	// A member is "started" only once it answers health checks; gate the
	// router on the whole fleet passing.
	for i := 1; i <= cfg.nodes; i++ {
		if err := cluster.WaitUp(fmt.Sprintf("n%d", i), 30*time.Second); err != nil {
			return err
		}
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	logger.Info("simdcluster listening", "addr", ln.Addr().String(),
		"nodes", cfg.nodes, "store_dir", cfg.storeDir, "simd_bin", bin)
	return simd.ServeUntilSignal(logger, "simdcluster", ln, cluster.Handler(), 10*time.Second, func(context.Context) {
		sup.stop(10 * time.Second)
		cluster.Close()
		logger.Info("simdcluster stopped")
	})
}

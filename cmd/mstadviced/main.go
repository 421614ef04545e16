// Command mstadviced is the advice-serving daemon: it loads stored
// oracle runs (internal/store snapshots) and serves per-node advice,
// full local-MST reconstructions and batched dynamic updates over
// HTTP/JSON (see internal/service for the endpoint list and the
// sharded copy-on-write concurrency model).
//
//	mstadviced -listen :8371 -load big=run_1e6.mstadv
//	mstadviced -graph demo=random:10000:7
//	curl localhost:8371/v1/graphs/big/advice?node=42
//	curl localhost:8371/v1/graphs/big/decode
//	curl localhost:8371/v1/graphs/big/tier?level=2   # coarse tier as a flat snapshot
//	curl -X POST localhost:8371/v1/graphs/big/update \
//	     -d '{"weights":[{"edge":3,"w":999}]}'
//
// A snapshot carries tiers only when its writer ran hier.BuildTiers, and
// no shipped command writes one yet, so the tier request above answers
// 404 on a -load or -graph entry.
//
// Replication (DESIGN.md §2.10): -epoch-log makes every published epoch
// durable (CRC-framed records, fsynced before the publishing call
// returns) and replays the log on restart, so the daemon comes back at
// exactly the epochs it had acknowledged. -replica-listen serves the
// binary replication protocol — advice/tier/info reads plus the log
// tail stream — and -replicate-from turns the daemon into a follower
// that tails a primary's log instead of loading graphs itself:
//
//	mstadviced -epoch-log primary.elog -replica-listen :9371 -graph big=random:100000
//	mstadviced -epoch-log replica.elog -replica-listen :9372 \
//	           -replicate-from primary:9371
//	mstadvice  -endpoints primary:9371,replica:9372 -id big -node 42
//
// A follower's HTTP surface stays up for reads; pushing updates at a
// follower forks its history from the primary's, so point writers at
// the primary only. -tier-only serves the degraded memory-pressure mode
// on the replication endpoint: full advice reads are refused with the
// degraded code and clients fall back to coarse tier snapshots.
//
// SIGINT/SIGTERM drain the server: the listener closes at once (new
// connections are refused), in-flight requests run to completion, and
// only an expired -drain deadline cancels what remains (advice.RunCtx,
// dynamic.Advisor.UpdateCtx check their context at round/batch
// granularity). A clean drain exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	rpprof "runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
	"mstadvice/internal/obs"
	"mstadvice/internal/problem"
	"mstadvice/internal/replica"
	"mstadvice/internal/service"
	"mstadvice/internal/store"
)

// recorderDepth bounds the flight recorder: the last N structured
// events (publishes, reconnects, chaos-visible failures) kept for
// GET /v1/events and the SIGQUIT dump.
const recorderDepth = 256

// repeatable collects repeated -load/-graph flags.
type repeatable []string

func (r *repeatable) String() string     { return strings.Join(*r, ",") }
func (r *repeatable) Set(v string) error { *r = append(*r, v); return nil }

func main() {
	var (
		listen     = flag.String("listen", ":8371", "HTTP listen address")
		loads      repeatable
		graphs     repeatable
		allowPaths = flag.Bool("allow-path-register", true, "allow POST /v1/graphs to load snapshots from server-side paths")
		probName   = flag.String("problem", "mst", "advice problem for -graph generated instances (see internal/problem; loaded snapshots carry their own)")

		epochLog      = flag.String("epoch-log", "", "durable epoch log: replayed on startup, then every published epoch is appended (fsynced) to it")
		replicaListen = flag.String("replica-listen", "", "serve the binary replication protocol (advice/tier/info reads + epoch-log tail) on this address")
		replicateFrom = flag.String("replicate-from", "", "follower mode: tail the primary's epoch log at this address instead of loading graphs")
		tierOnly      = flag.Bool("tier-only", false, "degraded mode for -replica-listen: refuse full advice reads, serve coarse tiers only")
		drain         = flag.Duration("drain", 10*time.Second, "graceful-shutdown deadline for in-flight requests on SIGINT/SIGTERM")
		debugAddr     = flag.String("debug-addr", "", "observability endpoint: GET /metrics (Prometheus text), GET /v1/events (flight recorder), /debug/pprof/")
	)
	flag.Var(&loads, "load", "register a stored snapshot: id=path (repeatable)")
	flag.Var(&graphs, "graph", "register a generated instance: id=family:n[:seed] (repeatable)")
	flag.Parse()

	if _, err := problem.ByName(*probName); err != nil {
		fail("%v", err)
	}
	svc := service.New()

	// The flight recorder runs unconditionally (it is a fixed-size ring);
	// -debug-addr only decides whether it is also queryable over HTTP.
	// SIGQUIT dumps it either way.
	rec := obs.NewRecorder(recorderDepth)
	svc.OnPublish(func(id string, ep *service.Epoch) {
		rec.Record("publish", "graph %s epoch %d published", id, ep.Seq)
	})
	regs := []*obs.Registry{svc.Metrics()}

	// The epoch log is the replication substrate; without -epoch-log it
	// is purely in-memory, which still lets -replica-listen stream the
	// history accumulated since startup.
	elog, err := replica.OpenLog(*epochLog)
	if err != nil {
		fail("%v", err)
	}
	regs = append(regs, elog.Metrics())

	// workCtx is the base context of every request and of the follower's
	// tail loop. It deliberately outlives the termination signal: the
	// drain lets in-flight work finish, and only an expired -drain
	// deadline cancels what remains.
	workCtx, shed := context.WithCancel(context.Background())
	defer shed()

	if *replicateFrom != "" {
		if len(loads)+len(graphs) > 0 {
			fail("-replicate-from is exclusive with -load/-graph: a follower's graphs come from the primary's log")
		}
		rep := replica.NewReplica(svc, *replicateFrom, replica.ReplicaOptions{Log: elog, Recorder: rec})
		regs = append(regs, rep.Metrics())
		if err := rep.ReplayLocal(); err != nil {
			fail("%v", err)
		}
		if n := elog.Len(); n > 0 {
			fmt.Printf("replayed %d epoch-log records (%d graphs)\n", n, len(svc.List()))
		}
		go rep.Run(workCtx)
		fmt.Printf("following primary at %s\n", *replicateFrom)
	} else {
		if err := elog.Replay(svc); err != nil {
			fail("%v", err)
		}
		if n := elog.Len(); n > 0 {
			fmt.Printf("replayed %d epoch-log records (%d graphs)\n", n, len(svc.List()))
		}
		// Attach after replay (replayed records must not re-append) and
		// before registration (new graphs' epoch 0 must be logged).
		elog.Attach(svc)
		for _, spec := range loads {
			id, path, ok := strings.Cut(spec, "=")
			if !ok || id == "" || path == "" {
				fail("bad -load %q (want id=path)", spec)
			}
			if _, err := svc.InfoFor(id); err == nil {
				fmt.Printf("skipping -load %s: already restored from the epoch log\n", id)
				continue
			}
			start := time.Now()
			snap, err := store.OpenMapped(path)
			if err != nil {
				fail("%v", err)
			}
			if err := svc.Register(id, snap); err != nil {
				fail("%v", err)
			}
			fmt.Printf("loaded %s: problem=%s n=%d m=%d in %v\n", id, snap.Problem, snap.Graph.N(), snap.Graph.M(), time.Since(start).Round(time.Millisecond))
		}
		for _, spec := range graphs {
			id, snap, err := generateSpec(spec, *probName)
			if err != nil {
				fail("%v", err)
			}
			if _, err := svc.InfoFor(id); err == nil {
				fmt.Printf("skipping -graph %s: already restored from the epoch log\n", id)
				continue
			}
			if err := svc.Register(id, snap); err != nil {
				fail("%v", err)
			}
			fmt.Printf("generated %s: n=%d m=%d\n", id, snap.Graph.N(), snap.Graph.M())
		}
	}

	if *replicaListen != "" {
		rsrv := replica.NewServer(svc, elog, replica.ServerOptions{TierOnly: *tierOnly})
		regs = append(regs, rsrv.Metrics())
		if err := rsrv.Listen(*replicaListen); err != nil {
			fail("%v", err)
		}
		defer rsrv.Close()
		mode := ""
		if *tierOnly {
			mode = " (tier-only degraded mode)"
		}
		fmt.Printf("replication protocol on %s%s\n", rsrv.Addr(), mode)
	}

	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.Handle("/metrics", obs.MetricsHandler(regs...))
		dmux.Handle("/v1/events", obs.EventsHandler(rec))
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		// Listen explicitly so the banner carries the bound address even
		// for ":0" — the observability test parses it from stdout.
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fail("%v", err)
		}
		dsrv := &http.Server{Handler: dmux}
		defer dsrv.Close()
		go dsrv.Serve(dln)
		fmt.Printf("debug endpoint on %s (/metrics, /v1/events, /debug/pprof/)\n", dln.Addr())
	}

	// SIGQUIT is the live-diagnosis signal: dump the flight recorder and
	// a goroutine profile to stderr and keep serving — unlike the Go
	// runtime default, which dumps stacks and dies.
	quitCh := make(chan os.Signal, 1)
	signal.Notify(quitCh, syscall.SIGQUIT)
	go func() {
		for range quitCh {
			fmt.Fprintln(os.Stderr, "mstadviced: SIGQUIT diagnostic dump")
			rec.Dump(os.Stderr)
			rpprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		}
	}()

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := &http.Server{
		Handler: service.NewHandler(svc, *allowPaths),
		// Per-request contexts inherit workCtx, not the signal context:
		// a drain is the listener refusing new work while outstanding
		// decodes and updates complete.
		BaseContext: func(net.Listener) context.Context { return workCtx },
	}

	// Listen explicitly so the banner carries the bound address even for
	// ":0" — the drain test (and scripts) parse it from stdout.
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("mstadviced listening on %s (%d graphs)\n", ln.Addr(), len(svc.List()))

	done := make(chan error, 1)
	go func() {
		err := srv.Serve(ln)
		if !errors.Is(err, http.ErrServerClosed) {
			done <- err
			return
		}
		done <- nil
	}()

	select {
	case <-sigCtx.Done():
		fmt.Println("mstadviced: draining")
		drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		err := srv.Shutdown(drainCtx)
		// Whatever outlived the deadline (and the follower's tail loop)
		// is shed now; a clean drain saw everything finish already.
		shed()
		if err != nil {
			fail("drain: %v", err)
		}
		<-done
		fmt.Println("mstadviced: drained")
	case err := <-done:
		if err != nil {
			fail("%v", err)
		}
	}
}

// generateSpec parses id=family:n[:seed] and builds the instance; the
// selected problem's oracle runs at Register time.
func generateSpec(spec, probName string) (string, *store.Snapshot, error) {
	id, rest, ok := strings.Cut(spec, "=")
	if !ok || id == "" {
		return "", nil, fmt.Errorf("bad -graph %q (want id=family:n[:seed])", spec)
	}
	parts := strings.Split(rest, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return "", nil, fmt.Errorf("bad -graph %q (want id=family:n[:seed])", spec)
	}
	n, err := strconv.Atoi(parts[1])
	if err != nil {
		return "", nil, fmt.Errorf("bad size in -graph %q: %w", spec, err)
	}
	seed := int64(1)
	if len(parts) == 3 {
		if seed, err = strconv.ParseInt(parts[2], 10, 64); err != nil {
			return "", nil, fmt.Errorf("bad seed in -graph %q: %w", spec, err)
		}
	}
	g, err := gen.BuildSeeded(parts[0], n, uint64(seed), gen.SeededOptions{})
	if err != nil {
		return "", nil, err
	}
	return id, &store.Snapshot{Problem: probName, Graph: g, Root: graph.NodeID(0)}, nil
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "mstadviced: "+format+"\n", args...)
	os.Exit(2)
}

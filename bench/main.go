// Command bench is the repository's end-to-end benchmark. It drives the
// advice pipeline only through its public functions — seeded graph →
// oracle → store → service over loopback HTTP and the replica wire
// protocol → decode and verify — on four workloads, checks every output,
// and prints each metric by name and unit. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
//
//	bash bench/run.sh --workload decode-100k --seed 1 --seconds 10 --trace 0
//	(cd bench && go run . -seed 2)              # every workload, each in a child process
//	(cd bench && go run . -trace 1 -spans s.json -workload build-1m)
//	(cd bench && go run . -compare parentDir changeDir)
//
// -trace 1 runs the timed phase twice, untraced and traced, and then
// calls single layers directly; it reports the per-layer metrics instead
// of the end-to-end ones. See README.md for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median, and only the last set-up is measured.
const setupReps = 3

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	spans    string // -spans: where a traced run writes its spans
	out      string // -out: directory for the run's result file
	n        int    // graph size; 0 means the workload's own
	dir      string // scratch directory for snapshots and logs
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

// set records a metric; a statistic of no samples (NaN) reads 0.
func (m metricSet) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// result is the JSON object a run prints last.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// hostFacts describe where a result was measured.
type hostFacts struct {
	HostCores  int    `json:"host_cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// resultFile is what -out records for one run; -compare reads it back.
type resultFile struct {
	Workload string    `json:"workload"`
	Seed     uint64    `json:"seed"`
	Trace    bool      `json:"trace"`
	Seconds  float64   `json:"seconds"`
	Host     hostFacts `json:"host"`
	Digest   string    `json:"snapshot_sha256"`
	Result   result    `json:"result"`
	// Detail holds the workload's own end-to-end numbers (build_s,
	// wire_read_p99_us, ...) and their sample counts.
	Detail metricSet `json:"detail"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run; empty runs each in a child process")
		seed     = flag.Uint64("seed", 1, "seed for every generated input")
		seconds  = flag.Float64("seconds", 10, "length of the timed phase")
		traceOn  = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
		spans    = flag.String("spans", "", "write the traced run's spans to this file")
		out      = flag.String("out", "", "write a result file per run into this directory")
		compare  = flag.Bool("compare", false, "compare result files: -compare parentDir changeDir")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare needs two directories")
		}
		regressed, err := compareDirs(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if *traceOn != 0 && *traceOn != 1 {
		fatalf("-trace takes 0 or 1")
	}
	if *seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	cfg := config{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *traceOn == 1, spans: *spans, out: *out,
	}
	if cfg.workload == "" {
		os.Exit(runChildren(cfg))
	}
	if specByName(cfg.workload) == nil {
		fatalf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fatalf("%v", err)
	}
	dir, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		fatalf("%v", err)
	}
	cfg.dir = dir
	rep, err := execute(cfg)
	os.RemoveAll(dir)
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	rep.print(os.Stdout)
	if cfg.out != "" {
		if err := rep.save(cfg); err != nil {
			fatalf("%v", err)
		}
	}
	if cfg.spans != "" && rep.tracer != nil {
		if err := rep.tracer.writeSpans(cfg.spans); err != nil {
			fatalf("%v", err)
		}
	}
	line, _ := json.Marshal(rep.result)
	fmt.Println(string(line))
	if !rep.result.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// runChildren runs every workload in a fresh child process of this
// binary, so no workload inherits another's heap, and passes each
// child's output through. It returns the exit code.
func runChildren(cfg config) int {
	self, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	code := 0
	for _, name := range workloadNames() {
		args := []string{"-workload", name, "-seed", fmt.Sprint(cfg.seed),
			"-seconds", fmt.Sprint(cfg.seconds.Seconds()), "-trace", "0"}
		if cfg.trace {
			args[len(args)-1] = "1"
		}
		if cfg.out != "" {
			args = append(args, "-out", cfg.out)
		}
		if cfg.spans != "" {
			args = append(args, "-spans", strings.TrimSuffix(cfg.spans, ".json")+"-"+name+".json")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		fmt.Printf("== %s\n", name)
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			code = 1
		}
	}
	return code
}

// run is the state one workload run shares with its checks.
type run struct {
	cfg config
	n   int

	attempted atomic.Int64
	failed    atomic.Int64

	mu       sync.Mutex
	failures []string
	warnings []string
	notes    map[string][]float64 // stage times in seconds, by per-layer metric name
	digest   string
}

// check counts one checked output and records it when wrong.
func (r *run) check(ok bool, format string, args ...any) bool {
	r.attempted.Add(1)
	if !ok {
		r.failed.Add(1)
		r.mu.Lock()
		if len(r.failures) < 10 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
		r.mu.Unlock()
	}
	return ok
}

// warn records a measurement-quality problem that leaves the outputs
// correct.
func (r *run) warn(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.warnings = append(r.warnings, fmt.Sprintf(format, args...))
}

// note records one stage time for the per-layer report.
func (r *run) note(name string, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.notes[name] = append(r.notes[name], d.Seconds())
}

func (r *run) noted(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.notes[name]) == 0 {
		return 0
	}
	return median(slices.Clone(r.notes[name]))
}

// deadline is when a timed phase starting now ends.
func (r *run) deadline() time.Time { return time.Now().Add(r.cfg.seconds) }

// report is everything a run prints and saves.
type report struct {
	result result
	detail metricSet
	tracer *tracer
	digest string
	notes  []string
}

func (rep *report) print(w *os.File) {
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	h := host()
	fmt.Fprintf(bw, "host host_cores=%d gomaxprocs=%d go=%s commit=%s\n", h.HostCores, h.GOMAXPROCS, h.GoVersion, h.Commit)
	if rep.digest != "" {
		fmt.Fprintf(bw, "snapshot_sha256 %s\n", rep.digest)
	}
	for _, line := range rep.notes {
		fmt.Fprintln(bw, line)
	}
	printSet(bw, "detail", rep.detail)
	printSet(bw, "metric", rep.result.Metrics)
}

func printSet(w *bufio.Writer, kind string, m metricSet) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		fmt.Fprintf(w, "%s %s %.6g %s\n", kind, name, m[name].Value, m[name].Unit)
	}
}

func (rep *report) save(cfg config) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	rf := resultFile{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds.Seconds(),
		Host: host(), Digest: rep.digest, Result: rep.result, Detail: rep.detail,
	}
	blob, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	kind := "e2e"
	if cfg.trace {
		kind = "trace"
	}
	name := fmt.Sprintf("%s-%s-seed%d-%d.json", cfg.workload, kind, cfg.seed, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(cfg.out, name), blob, 0o644)
}

// host reads the host facts once per process.
var host = sync.OnceValue(func() hostFacts {
	h := hostFacts{HostCores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified {
			h.Commit += "+dirty"
		}
	}
	return h
})

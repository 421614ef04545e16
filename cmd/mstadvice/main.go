// Command mstadvice runs one advising scheme on one generated graph and
// prints its measured (m, t) profile:
//
//	mstadvice -scheme core -family grid -n 256 -seed 7
//	mstadvice -scheme noadvice -family path -n 512
//	mstadvice -all -family lollipop -n 128
//	mstadvice -problem topo -family ring -n 256      # topology recognition
//	mstadvice -scheme topo-flood-r4 -family grid -n 256
//	mstadvice -scheme mst-hier-l3 -family grid -n 256     # hierarchical advice
//	mstadvice -sensitivity -family random -n 256     # per-edge MST tolerances
//	mstadvice -faults 8 -family expander -n 128      # fail 8 non-tree links mid-run
//	mstadvice -save run.mstadv -family random -n 100000   # persist graph + advice
//	mstadvice -load run.mstadv                       # rerun on the stored instance
//	mstadvice -async -family random -n 256           # asynchronous execution
//	mstadvice -async -sched lifo -lat 1:32 -n 256    # adversarial delivery
//	mstadvice -endpoints host1:9371,host2:9372 -id big -node 42
//	mstadvice -list
//
// -endpoints switches to the replicated-serving client (DESIGN.md
// §2.10): instead of running a scheme locally, it reads one node's
// advice from a set of mstadviced replication endpoints through
// replica.Client — round-robin load balancing, failover on connection
// error or stale epoch, capped jittered backoff, and graceful
// degradation to a coarse tier snapshot when only tier-only
// (memory-pressured) endpoints answer. -id names the graph; -node picks
// the node (omit it to print just the graph's current epoch).
//
// -async replays the scheme's unmodified decoder on the event-driven
// asynchronous engine under the α-synchronizer (DESIGN.md §2.7): -lat
// min:max sets the seeded uniform latency range, -lat-seed its seed, and
// -sched picks the delivery policy (fifo | lifo | maxdelay). The report
// then includes virtual time and the synchronizer's message overhead.
//
// -save writes the generated graph together with the core oracle's
// advice as an internal/store snapshot, the file format served by the
// mstadviced daemon; -load replays any scheme on a stored instance
// (generator flags are then ignored).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"mstadvice"

	"mstadvice/internal/core"
	"mstadvice/internal/dynamic"
	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
	"mstadvice/internal/problem"
	"mstadvice/internal/replica"
	"mstadvice/internal/report"
	"mstadvice/internal/store"
)

func main() {
	var (
		probName    = flag.String("problem", "", "advice problem: mst | topo (default: the scheme's owner, or mst)")
		schemeName  = flag.String("scheme", "", "scheme: trivial | oneround | core | core-adaptive | localgather | noadvice | pipeline | mst-hier-lL | topo-flood[-rK] | topo-direct (default: the problem's canonical scheme)")
		family      = flag.String("family", "random", "graph family (see -list)")
		n           = flag.Int("n", 64, "approximate node count")
		seed        = flag.Int64("seed", 1, "generator seed")
		root        = flag.Int("root", 0, "designated root node")
		weights     = flag.String("weights", "distinct", "weight mode: distinct | random | unit")
		all         = flag.Bool("all", false, "run every scheme on the graph and print a comparison table")
		list        = flag.Bool("list", false, "list schemes and families, then exit")
		sensitivity = flag.Bool("sensitivity", false, "print the MST sensitivity analysis of the graph and exit")
		faults      = flag.Int("faults", 0, "fail this many non-tree links from round 2 onward (scenario fault injection)")
		savePath    = flag.String("save", "", "save the graph and its core-oracle advice to this store snapshot file")
		loadPath    = flag.String("load", "", "load the graph (and root) from a store snapshot instead of generating one")
		async       = flag.Bool("async", false, "run on the asynchronous event-driven engine (α-synchronizer)")
		schedName   = flag.String("sched", "fifo", "asynchronous delivery policy: fifo | lifo | maxdelay")
		latRange    = flag.String("lat", "1:8", "asynchronous per-message latency range min:max (uniform, seeded)")
		latSeed     = flag.Int64("lat-seed", 1, "asynchronous latency seed")
		endpoints   = flag.String("endpoints", "", "comma-separated mstadviced replication endpoints: query the serving tier with failover instead of running a scheme")
		graphID     = flag.String("id", "", "graph ID to query with -endpoints")
		node        = flag.Int("node", -1, "node whose advice to read with -endpoints (-1: print the graph's epoch only)")
	)
	flag.Parse()

	if *endpoints != "" {
		queryEndpoints(*endpoints, *graphID, *node)
		return
	}

	if *list {
		fmt.Println("problems and their schemes:")
		for _, p := range mstadvice.Problems() {
			fmt.Printf("  %s (canonical: %s)\n", p.Name(), p.Scheme().Name())
			for _, s := range p.Schemes() {
				fmt.Printf("    %s\n", s.Name())
			}
		}
		fmt.Println("families:")
		for _, name := range gen.Names() {
			fmt.Printf("  %s\n", name)
		}
		return
	}

	// Resolve the problem/scheme pair: an explicit -scheme names its
	// owning problem through the registry; an explicit -problem without
	// -scheme selects that problem's canonical scheme; bare invocations
	// keep the historical default, the Theorem 3 MST scheme.
	var (
		prob   mstadvice.AdviceProblem
		scheme mstadvice.Scheme
	)
	if *schemeName != "" {
		owner, s, ok := problem.BySchemeName(*schemeName)
		if !ok {
			fail("unknown scheme %q (try -list)", *schemeName)
		}
		if *probName != "" && *probName != owner.Name() {
			fail("scheme %q belongs to problem %q, not %q", *schemeName, owner.Name(), *probName)
		}
		prob, scheme = owner, s
	} else {
		name := *probName
		if name == "" {
			name = "mst"
		}
		var err error
		if prob, err = mstadvice.ProblemByName(name); err != nil {
			fail("%v (try -list)", err)
		}
		scheme = prob.Scheme()
	}
	var mode mstadvice.WeightMode
	switch *weights {
	case "distinct":
		mode = mstadvice.WeightsDistinct
	case "random":
		mode = mstadvice.WeightsRandom
	case "unit":
		mode = mstadvice.WeightsUnit
	default:
		fail("unknown weight mode %q", *weights)
	}

	var g *mstadvice.Graph
	if *loadPath != "" {
		start := time.Now()
		snap, err := store.OpenMapped(*loadPath)
		if err != nil {
			fail("%v", err)
		}
		g = snap.Graph
		// The snapshot names its problem; adopt it unless the flags
		// explicitly asked for something else, which is a conflict.
		if snap.Problem != prob.Name() {
			if *schemeName != "" || *probName != "" {
				fail("snapshot %s stores problem %q, flags selected %q", *loadPath, snap.Problem, prob.Name())
			}
			if prob, err = mstadvice.ProblemByName(snap.Problem); err != nil {
				fail("snapshot %s: %v", *loadPath, err)
			}
			scheme = prob.Scheme()
		}
		rootSet := false
		flag.Visit(func(f *flag.Flag) { rootSet = rootSet || f.Name == "root" })
		if !rootSet {
			*root = int(snap.Root)
		}
		*family = "stored"
		fmt.Printf("loaded %s: problem=%s, n=%d, m=%d, root=%d, advice %s, in %v\n",
			*loadPath, prob.Name(), g.N(), g.M(), snap.Root, adviceNote(snap), time.Since(start).Round(time.Millisecond))
	} else {
		var err error
		g, err = gen.BuildSeeded(*family, *n, uint64(*seed), gen.SeededOptions{Weights: mode})
		if err != nil {
			fail("%v", err)
		}
	}
	if *root < 0 || *root >= g.N() {
		fail("root %d out of range [0,%d)", *root, g.N())
	}

	if *savePath != "" {
		adviceBits, err := prob.Encode(g, graph.NodeID(*root), mstadvice.ProblemEncodeOptions{})
		if err != nil {
			fail("oracle for -save: %v", err)
		}
		capBits := 0
		if prob.Name() == "mst" {
			capBits = core.DefaultCap
		}
		snap := &store.Snapshot{Problem: prob.Name(), Graph: g, Root: graph.NodeID(*root), Cap: capBits, Advice: adviceBits}
		start := time.Now()
		if err := store.Save(*savePath, snap); err != nil {
			fail("%v", err)
		}
		st, err := os.Stat(*savePath)
		if err != nil {
			fail("%v", err)
		}
		fmt.Printf("saved %s: n=%d, m=%d, %d bytes, in %v\n",
			*savePath, g.N(), g.M(), st.Size(), time.Since(start).Round(time.Millisecond))
	}

	if *sensitivity {
		printSensitivity(g, *family, mode, *seed)
		return
	}

	var opt mstadvice.RunOptions
	if *async {
		if *faults > 0 {
			fail("-async and -faults are incompatible: scenario faults are round-indexed")
		}
		var latMin, latMax int64
		if _, err := fmt.Sscanf(*latRange, "%d:%d", &latMin, &latMax); err != nil || latMin < 1 || latMax < latMin {
			fail("bad -lat %q (want min:max with 1 <= min <= max)", *latRange)
		}
		opt.Async = true
		opt.Latency = mstadvice.UniformLatency{Seed: *latSeed, Min: latMin, Max: latMax}
		switch *schedName {
		case "fifo":
			opt.Scheduler = mstadvice.SchedulerFIFO()
		case "lifo":
			opt.Scheduler = mstadvice.SchedulerLIFO()
		case "maxdelay":
			opt.Scheduler = mstadvice.SchedulerMaxDelay(latMax)
		default:
			fail("unknown -sched %q (fifo | lifo | maxdelay)", *schedName)
		}
	}
	if *faults > 0 {
		sens, err := dynamic.Analyze(g)
		if err != nil {
			fail("%v", err)
		}
		opt.Scenario = dynamic.NonTreeLinkFailures(sens, *faults, 2)
		if got := len(opt.Scenario.Events); got < *faults {
			fmt.Printf("note: only %d non-tree links exist; failing all of them\n", got)
		}
	}

	if *all {
		verCol := "exact MST"
		if prob.Name() != "mst" {
			verCol = "verified"
		}
		t := report.New(
			fmt.Sprintf("all %s schemes on %s (n=%d, m=%d, weights=%s, seed=%d)", prob.Name(), *family, g.N(), g.M(), mode, *seed),
			"scheme", "advice max", "advice avg", "rounds", "messages", "max msg [bits]", verCol)
		for _, s := range prob.Schemes() {
			res, err := mstadvice.Run(s, g, mstadvice.NodeID(*root), opt)
			if err != nil {
				// Under fault injection a scheme may legitimately fail;
				// report it as a row instead of aborting the comparison.
				t.Add(s.Name(), "-", "-", "-", "-", "-", fmt.Sprintf("FAILED: %v", err))
				continue
			}
			t.Add(s.Name(), res.Advice.MaxBits, res.Advice.AvgBits, res.Rounds,
				res.Messages, res.MaxMsgBits, res.Verified)
		}
		if _, err := t.WriteTo(os.Stdout); err != nil {
			fail("%v", err)
		}
		return
	}

	res, err := mstadvice.Run(scheme, g, mstadvice.NodeID(*root), opt)
	if err != nil {
		fail("%v", err)
	}

	fmt.Printf("problem       %s\n", res.Problem)
	fmt.Printf("scheme        %s\n", res.Scheme)
	fmt.Printf("graph         %s, n=%d, m=%d, weights=%s, seed=%d\n", *family, res.N, res.M, mode, *seed)
	fmt.Printf("advice        max %d bits, avg %.2f bits, total %d bits\n",
		res.Advice.MaxBits, res.Advice.AvgBits, res.Advice.TotalBits)
	fmt.Printf("rounds        %d\n", res.Rounds)
	if res.Pulses > 0 && !*async {
		fmt.Printf("pulses        %d (idealized synchronizer barriers)\n", res.Pulses)
	}
	fmt.Printf("messages      %d (total %d bits, largest %d bits)\n",
		res.Messages, res.TotalBits, res.MaxMsgBits)
	if *async {
		fmt.Printf("async         %s scheduler, latency %s (seed %d)\n", *schedName, *latRange, *latSeed)
		fmt.Printf("virtual time  %d ticks over %d delivery steps, %d simulated rounds\n",
			res.VirtualTime, res.Steps, res.Pulses)
		fmt.Printf("synchronizer  %d control messages, %d overhead bits (%.1fx the payload count)\n",
			res.SyncMessages, res.SyncBits, float64(res.SyncMessages)/float64(max(res.Messages, 1)))
	}
	if *faults > 0 {
		fmt.Printf("faults        %d links down from round 2: %d messages lost, %d undelivered\n",
			len(opt.Scenario.Events), res.LinkDropped, res.Undelivered)
	}
	if res.Problem == "mst" {
		fmt.Printf("output root   node %d\n", res.Root)
		if res.Verified {
			fmt.Printf("verification  exact rooted MST: OK\n")
		} else {
			fmt.Printf("verification  FAILED: %v\n", res.VerifyErr)
			os.Exit(1)
		}
	} else {
		fmt.Printf("output        %s\n", res.Output)
		if !res.Verified {
			fmt.Printf("verification  FAILED: %v\n", res.VerifyErr)
			os.Exit(1)
		}
	}
	if res.Scheme == "core" {
		exact, paper := mstadvice.ConstantAdviceRounds(res.N)
		fmt.Printf("round bounds  schedule %d, paper 9⌈log n⌉ = %d\n", exact, paper)
	}
}

// queryEndpoints is the -endpoints mode: one failover read against the
// replicated serving tier, degrading to a coarse tier snapshot when no
// endpoint serves full advice.
func queryEndpoints(spec, id string, node int) {
	if id == "" {
		fail("-endpoints needs -id")
	}
	var eps []string
	for _, ep := range strings.Split(spec, ",") {
		if ep = strings.TrimSpace(ep); ep != "" {
			eps = append(eps, ep)
		}
	}
	c, err := replica.NewClient(eps, replica.ClientOptions{})
	if err != nil {
		fail("%v", err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if node < 0 {
		epoch, err := c.Epoch(ctx, id)
		if err != nil {
			fail("%v", err)
		}
		fmt.Printf("graph   %s\nepoch   %d\n", id, epoch)
		return
	}
	ans, err := c.AdviceDegraded(ctx, id, node)
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("graph   %s\nnode    %d\nepoch   %d\n", id, node, ans.Epoch)
	if ans.Degraded {
		fmt.Printf("advice  unavailable (all endpoints tier-only); degraded to tier level %d: n=%d, m=%d\n",
			ans.TierLevel, ans.Tier.Graph.N(), ans.Tier.Graph.M())
		return
	}
	fmt.Printf("advice  %d bits: %s\n", ans.Bits.Len(), ans.Bits)
}

// printSensitivity renders the per-edge tolerance analysis: aggregate
// statistics plus the most fragile edges on either side of the MST.
func printSensitivity(g *mstadvice.Graph, family string, mode mstadvice.WeightMode, seed int64) {
	sens, err := dynamic.Analyze(g)
	if err != nil {
		fail("%v", err)
	}
	bridges, nonTree := 0, 0
	var minTree, minNonTree int64 = -1, -1
	for e := 0; e < g.M(); e++ {
		slack, bounded := sens.Slack(graph.EdgeID(e))
		switch {
		case sens.InTree[e] && !bounded:
			bridges++
		case sens.InTree[e]:
			if minTree < 0 || slack < minTree {
				minTree = slack
			}
		default:
			nonTree++
			if minNonTree < 0 || slack < minNonTree {
				minNonTree = slack
			}
		}
	}
	fmt.Printf("graph         %s, n=%d, m=%d, weights=%s, seed=%d\n", family, g.N(), g.M(), mode, seed)
	fmt.Printf("mst           %d tree edges (%d bridges), %d non-tree edges\n", g.N()-1, bridges, nonTree)
	if minTree >= 0 {
		fmt.Printf("tree slack    min %d weight units before a tree edge is evicted\n", minTree)
	}
	if minNonTree >= 0 {
		fmt.Printf("cycle slack   min %d weight units before a non-tree edge enters\n", minNonTree)
	}
	t := report.New("most fragile edges (smallest slack first)",
		"edge", "u-v", "weight", "in MST", "tolerance", "slack")
	type frag struct {
		e     graph.EdgeID
		slack int64
	}
	var frags []frag
	for e := 0; e < g.M(); e++ {
		if slack, bounded := sens.Slack(graph.EdgeID(e)); bounded {
			frags = append(frags, frag{graph.EdgeID(e), slack})
		}
	}
	slices.SortFunc(frags, func(a, b frag) int {
		if a.slack != b.slack {
			if a.slack < b.slack {
				return -1
			}
			return 1
		}
		return int(a.e - b.e)
	})
	if len(frags) > 10 {
		frags = frags[:10]
	}
	for _, f := range frags {
		rec := g.Edge(f.e)
		limit, _ := sens.Tolerance(f.e)
		t.Add(f.e, fmt.Sprintf("%d-%d", rec.U, rec.V), rec.W, sens.InTree[f.e], limit, f.slack)
	}
	if _, err := t.WriteTo(os.Stdout); err != nil {
		fail("%v", err)
	}
}

// adviceNote describes a snapshot's advice section for the -load banner.
func adviceNote(snap *store.Snapshot) string {
	if snap.Advice == nil {
		return "absent"
	}
	max := 0
	for _, a := range snap.Advice {
		if a.Len() > max {
			max = a.Len()
		}
	}
	return fmt.Sprintf("stored (max %d bits)", max)
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "mstadvice: "+format+"\n", args...)
	os.Exit(2)
}

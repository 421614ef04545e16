// Package experiments regenerates every table and figure of the
// reproduction (E1–E13 in DESIGN.md §3). Each experiment returns aligned
// text tables so that cmd/experiments, the root benchmarks and
// EXPERIMENTS.md all draw from the same code path.
//
// The paper (Fraigniaud, Korman, Lebhar, SPAA 2007) is a theory paper, so
// the "tables" reproduce its quantitative theorem claims: advising-scheme
// profiles (m, t), the average-size lower and upper bounds, and the
// decomposition lemmas, measured on concrete graph families.
package experiments

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"mstadvice/internal/advice"
	"mstadvice/internal/boruvka"
	"mstadvice/internal/core"
	"mstadvice/internal/dynamic"
	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
	"mstadvice/internal/lowerbound"
	"mstadvice/internal/report"
	"mstadvice/internal/schemes/localgather"
	"mstadvice/internal/schemes/noadvice"
	"mstadvice/internal/schemes/oneround"
	"mstadvice/internal/schemes/pipeline"
	"mstadvice/internal/schemes/trivial"
	"mstadvice/internal/sim"
)

// Config scales the experiments.
type Config struct {
	// Sizes is the n sweep; nil means the default.
	Sizes []int
	// Families restricts the graph families; nil means the default four.
	Families []string
	// Seed feeds all generators.
	Seed int64
}

func (c Config) sizes() []int {
	if c.Sizes != nil {
		return c.Sizes
	}
	return []int{16, 64, 256, 1024}
}

func (c Config) families() []string {
	if c.Families != nil {
		return c.Families
	}
	return []string{"path", "grid", "random", "expander"}
}

// allFamilies returns the configured families, or — unlike families(),
// which defaults to the classic four — every registered family. E11
// sweeps the whole registry by default.
func (c Config) allFamilies() []string {
	if c.Families == nil {
		return gen.Names()
	}
	return c.Families
}

func (c Config) rng(salt int64) *rand.Rand {
	return rand.New(rand.NewSource(c.Seed*1315423911 + salt))
}

// graph builds the named family at size n with distinct weights, seeded
// from the config seed and a per-call salt. Validate has checked the
// names and sizes at the CLI boundary, so a failure here is a bug.
func (c Config) graph(family string, n int, salt int64) *graph.Graph {
	g, err := gen.BuildSeeded(family, n, uint64(c.Seed*1315423911+salt), gen.SeededOptions{})
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return g
}

// Validate checks the configuration at the CLI boundary: every family
// name must be registered and every size positive, so bad flags surface
// as errors instead of generator panics mid-run.
func (c Config) Validate() error {
	for _, name := range c.Families {
		if !slices.Contains(gen.Names(), name) {
			return fmt.Errorf("experiments: unknown family %q (have %v)", name, gen.Names())
		}
	}
	for _, n := range c.Sizes {
		if n < 1 {
			return fmt.Errorf("experiments: size %d out of range (need n >= 1)", n)
		}
	}
	return nil
}

// Registry maps experiment IDs to their runners.
func Registry() map[string]func(Config) []*report.Table {
	return map[string]func(Config) []*report.Table{
		"e1":  E1Trivial,
		"e2":  E2LowerBound,
		"e3":  E3OneRound,
		"e4":  E4ConstantAdvice,
		"e5":  E5Tradeoff,
		"e6":  E6Decomposition,
		"e7":  E7CapAblation,
		"e8":  E8Congest,
		"e9":  E9PhaseDynamics,
		"e10": E10RoundProfile,
		"e11": E11Churn,
		"e12": E12Topology,
		"e13": E13Hier,
	}
}

// IDs returns the experiment identifiers in order.
func IDs() []string {
	return []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13"}
}

func mustRun(s advice.Scheme, g *graph.Graph, root graph.NodeID, opt sim.Options) *advice.Result {
	res, err := advice.Run(s, g, root, opt)
	if err != nil {
		panic(fmt.Sprintf("experiments: %s: %v", s.Name(), err))
	}
	return res
}

// E1Trivial measures the (⌈log n⌉, 0)-scheme: maximum advice against the
// ⌈log n⌉+1 bound, zero rounds, exactness of the output.
func E1Trivial(c Config) []*report.Table {
	t := report.New("E1  trivial (⌈log n⌉, 0)-advising scheme",
		"family", "n", "max advice [bits]", "bound ⌈log n⌉+1", "avg advice", "rounds", "exact MST")
	var s trivial.Scheme
	for _, fam := range c.families() {
		for _, n := range c.sizes() {
			g := c.graph(fam, n, int64(n))
			res := mustRun(s, g, 0, sim.Options{})
			t.Add(fam, g.N(), res.Advice.MaxBits, graph.CeilLog2(g.N())+1,
				res.Advice.AvgBits, res.Rounds, res.Verified)
		}
	}
	t.Note = "paper §1: rank of the parent edge, decoded with zero communication"
	return []*report.Table{t}
}

// E2LowerBound runs the Theorem 1 pigeonhole experiment on the G_n family
// and shows the matching growth of the trivial scheme's average advice.
func E2LowerBound(c Config) []*report.Table {
	n, i := 20, 4
	fam, err := lowerbound.NewFamily(n, i)
	if err != nil {
		panic(err)
	}
	t1 := report.New(
		fmt.Sprintf("E2a  Theorem 1 pigeonhole on G_n (n=%d, spine index i=%d, k=%d instances)", n, i, fam.K),
		"advice bits m", "instances served", "pigeonhole bound min(2^m,k)", "coverage")
	for m := 0; m <= graph.CeilLog2(fam.K)+1; m++ {
		res := fam.Experiment(m)
		t1.Add(m, res.Served, res.Bound, fmt.Sprintf("%d/%d", res.Served, res.K))
	}
	t1.Note = "zero-round decoding at u_i is blind to rotations: < log k bits must fail"

	t2 := report.New("E2b  average advice of the 0-round scheme on G_n grows like log n (Ω(log n) is optimal)",
		"n (graph has 2n nodes)", "avg advice [bits]", "⌈log 2n⌉")
	var s trivial.Scheme
	for _, half := range []int{8, 16, 32, 64, 128} {
		gn, err := lowerbound.BuildGn(half, 0)
		if err != nil {
			panic(err)
		}
		assignment, err := s.Advise(gn.G, 0)
		if err != nil {
			panic(err)
		}
		t2.Add(half, advice.Measure(assignment, gn.G.N()).AvgBits, graph.CeilLog2(2*half))
	}
	return []*report.Table{t1, t2}
}

// E3OneRound measures Theorem 2: constant average advice, O(log² n) max,
// exactly one round.
func E3OneRound(c Config) []*report.Table {
	t := report.New("E3  Theorem 2 (O(log² n), 1)-scheme with constant average advice",
		"family", "n", "avg advice [bits]", "bound c=12", "max advice", "bound 2Σ(i+1)", "rounds", "exact MST")
	var s oneround.Scheme
	for _, fam := range c.families() {
		for _, n := range c.sizes() {
			g := c.graph(fam, n, 3*int64(n))
			res := mustRun(s, g, 0, sim.Options{})
			logn := graph.CeilLog2(g.N())
			maxBound := 0
			for i := 1; i <= logn; i++ {
				maxBound += 2 * (i + 1)
			}
			t.Add(fam, g.N(), res.Advice.AvgBits, oneround.AverageConstant,
				res.Advice.MaxBits, maxBound, res.Rounds, res.Verified)
		}
	}
	t.Note = "average stays flat as n grows; one round collapses the Ω(log n) 0-round bound"
	return []*report.Table{t}
}

// E4ConstantAdvice measures the main theorem: m ≤ 12 bits, t = Θ(log n).
func E4ConstantAdvice(c Config) []*report.Table {
	t := report.New("E4  Theorem 3 (O(1), O(log n))-scheme — the paper's main result",
		"family", "n", "max advice [bits]", "m=12", "avg advice", "rounds", "schedule bound", "paper 9⌈log n⌉", "max msg [bits]", "exact MST")
	for _, fam := range c.families() {
		for _, n := range c.sizes() {
			g := c.graph(fam, n, 5*int64(n))
			res := mustRun(core.Scheme{}, g, 0, sim.Options{})
			exact, paper := core.RoundBound(g.N())
			t.Add(fam, g.N(), res.Advice.MaxBits, 12, res.Advice.AvgBits,
				res.Rounds, exact, paper, res.MaxMsgBits, res.Verified)
		}
	}
	t.Note = "rounds follow the fixed schedule ≈ 9⌈log n⌉ + 2⌈log log n⌉ + O(1); see DESIGN.md §2.2"

	t2 := report.New("E4b  strict schedule vs pulse-driven adaptive decoder (extension; same oracle & advice)",
		"family", "n", "strict rounds", "adaptive rounds", "adaptive exact MST")
	for _, fam := range c.families() {
		for _, n := range c.sizes() {
			g := c.graph(fam, n, 6*int64(n))
			strict := mustRun(core.Scheme{}, g, 0, sim.Options{})
			adaptive := mustRun(core.Scheme{Adaptive: true}, g, 0, sim.Options{})
			t2.Add(fam, g.N(), strict.Rounds, adaptive.Rounds, adaptive.Verified)
		}
	}
	t2.Note = "adaptivity saves little: the paper's worst-case windows are nearly tight on deep fragments"
	return []*report.Table{t, t2}
}

// E5Tradeoff is the headline separation figure: rounds as a function of n
// for every scheme, per family.
func E5Tradeoff(c Config) []*report.Table {
	schemes := []advice.Scheme{
		trivial.Scheme{}, oneround.Scheme{}, core.Scheme{},
		localgather.Scheme{}, noadvice.Scheme{}, pipeline.Scheme{},
	}
	var tables []*report.Table
	for _, fam := range c.families() {
		t := report.New(fmt.Sprintf("E5  rounds vs n on %s (advice bits in brackets: max/avg)", fam),
			"n", "trivial", "oneround", "core", "localgather", "noadvice", "pipeline")
		for _, n := range c.sizes() {
			row := []interface{}{0}
			g := c.graph(fam, n, 7*int64(n))
			row[0] = g.N()
			for _, s := range schemes {
				res := mustRun(s, g, 0, sim.Options{})
				if !res.Verified {
					panic(fmt.Sprintf("experiments: %s failed verification on %s n=%d: %v",
						s.Name(), fam, n, res.VerifyErr))
				}
				row = append(row, fmt.Sprintf("%d [%d/%.1f]", res.Rounds, res.Advice.MaxBits, res.Advice.AvgBits))
			}
			t.Add(row...)
		}
		t.Note = "constant advice (core, ≤12 bits) turns poly(n) rounds into Θ(log n)"
		tables = append(tables, t)
	}
	return tables
}

// E6Decomposition verifies Lemmas 1-2 and Claim 1 quantitatively.
func E6Decomposition(c Config) []*report.Table {
	t := report.New("E6  Borůvka decomposition: Lemma 1, Lemma 2 and Claim 1 measured",
		"family", "n", "phases", "≤⌈log n⌉", "max |F| active@i vs 2^i", "max sel-rank/|F|", "max packed bits", "cap c=11")
	for _, fam := range c.families() {
		for _, n := range c.sizes() {
			g := c.graph(fam, n, 11*int64(n))
			phases, err := phaseDynamics(g)
			if err != nil {
				panic(fmt.Sprintf("experiments: E6 %s n=%d: %v", fam, n, err))
			}
			worstFrac, maxRankFrac := 0.0, 0.0
			for _, ph := range phases {
				worstFrac = max(worstFrac, ph.activeFrac)
				maxRankFrac = max(maxRankFrac, ph.rankFrac)
			}
			assignment, err := core.BuildAdvice(g, 0, core.DefaultCap)
			if err != nil {
				panic(err)
			}
			maxPacked := 0
			for _, a := range assignment {
				if a.Len()-1 > maxPacked {
					maxPacked = a.Len() - 1
				}
			}
			t.Add(fam, g.N(), len(phases), graph.CeilLog2(g.N()),
				fmt.Sprintf("%.2f", worstFrac), fmt.Sprintf("%.2f", maxRankFrac),
				maxPacked, core.DefaultCap)
		}
	}
	t.Note = "both ratio columns must stay < 1.00 / ≤ 1.00: active |F| < 2^i (Lemma 1), selected-edge rank ≤ |F| (Lemma 2)"
	return []*report.Table{t}
}

// phaseStats is one phase of a decomposition as E6 and E9 tabulate it.
type phaseStats struct {
	frags, active    int
	minSize, maxSize int
	selected         int     // distinct edges the phase's fragments select
	activeFrac       float64 // largest |F|/2^i over active fragments
	rankFrac         float64 // largest (rank+1)/|F| over selections, rank the edge's global rank at its chooser
}

// phaseDynamics decomposes g from node 0 and reads phases
// 1..TotalPhases off one Run. It fails when the run breaks a bound that
// E6 or E9 prints: Lemma 1 (an active fragment of phase i has
// 2^(i-1) ≤ |F| < 2^i, and phase i has at most n/2^(i-1) fragments),
// Lemma 2 (a selected edge's global rank at its chooser is below |F|),
// or an edge the visits select in another phase than pass 1 recorded in
// SelPhase. DecomposeOpt records a phase for exactly the n-1 tree
// edges, so the last check also holds the phases' selections to a sum
// of n-1.
func phaseDynamics(g *graph.Graph) ([]phaseStats, error) {
	d, err := boruvka.DecomposeOpt(g, 0, boruvka.Options{})
	if err != nil {
		return nil, err
	}
	n := g.N()
	phases := make([]phaseStats, d.TotalPhases)
	for i := range phases {
		phases[i].minSize = n
	}
	// selIn[e] is the phase whose visits select edge e, 0 for none; the
	// fragments at both ends of an edge may select it, and it counts once.
	selIn := make([]uint8, g.M())
	var mu sync.Mutex
	if d.TotalPhases == 0 {
		return phases, nil // a single node: no phase ran, nothing to stream
	}
	err = d.Run(1, d.TotalPhases, func(_ int, v boruvka.StreamVisit) error {
		i, size := v.Phase, len(v.BFS)
		if v.Active && (size >= 1<<i || i > 1 && size < 1<<(i-1)) {
			return fmt.Errorf("phase %d: active fragment %d has %d nodes, outside [2^(i-1), 2^i) (Lemma 1)", i, v.Frag, size)
		}
		rankFrac := 0.0
		if v.HasSel {
			rank := g.GlobalRankAt(v.Sel.Chooser, g.PortAt(v.Sel.Edge, v.Sel.Chooser))
			if rank+1 > size {
				return fmt.Errorf("phase %d: fragment %d of %d nodes selects the edge of global rank %d at its chooser (Lemma 2)", i, v.Frag, size, rank+1)
			}
			rankFrac = float64(rank+1) / float64(size)
		}
		mu.Lock()
		defer mu.Unlock()
		ph := &phases[i-1]
		ph.frags++
		ph.minSize, ph.maxSize = min(ph.minSize, size), max(ph.maxSize, size)
		if v.Active {
			ph.active++
			ph.activeFrac = max(ph.activeFrac, float64(size)/float64(int(1)<<uint(i)))
		}
		ph.rankFrac = max(ph.rankFrac, rankFrac)
		if v.HasSel {
			selIn[v.Sel.Edge] = uint8(i)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for e, i := range selIn {
		if i != d.SelPhase[e] {
			return nil, fmt.Errorf("edge %d: the visits select it in phase %d, pass 1 in phase %d", e, i, d.SelPhase[e])
		}
		if i > 0 {
			phases[i-1].selected++
		}
	}
	for i, ph := range phases {
		if ph.frags > n>>i {
			return nil, fmt.Errorf("phase %d: %d fragments, more than n/2^(i-1) = %d (Lemma 1)", i+1, ph.frags, n>>i)
		}
	}
	return phases, nil
}

// E7CapAblation sweeps the per-node packed budget below the paper's c=11
// and reports where Claim 1's packing starts failing, plus the partial
// sums of the paper's average constant.
func E7CapAblation(c Config) []*report.Table {
	t1 := report.New("E7a  Theorem 3 packing feasibility vs per-node cap (20 random graphs per cell)",
		"cap [bits]", "n=64", "n=256", "n=1024")
	sizes := []int{64, 256, 1024}
	trials := 20
	for cap := 1; cap <= core.DefaultCap+1; cap++ {
		row := []interface{}{cap}
		for _, n := range sizes {
			ok := 0
			for k := 0; k < trials; k++ {
				g := c.graph("random", n, int64(cap*100000+n*100+k))
				if _, err := core.BuildAdvice(g, 0, cap); err == nil {
					ok++
				}
			}
			row = append(row, fmt.Sprintf("%d/%d", ok, trials))
		}
		t1.Add(row...)
	}
	t1.Note = "Claim 1 proves cap=11 always suffices; the ablation shows the empirical margin"

	t2 := report.New("E7b  partial sums of the Theorem 2 average constant c = Σ (i+1)/2^(i-2)",
		"terms", "partial sum [bits/node]")
	sum := 0.0
	for i := 1; i <= 12; i++ {
		sum += float64(i+1) / float64(int64(1)<<uint(i)) * 4
		t2.Add(i, sum)
	}
	t2.Note = "converges to 12: the constant behind Theorem 2's average bound"
	return []*report.Table{t1, t2}
}

// E9PhaseDynamics tabulates one Borůvka run phase by phase (the paper's
// Figure 2 rendered as numbers): fragment counts against the n/2^(i-1)
// bound, active counts, size ranges, and how many tree edges each phase
// contributes.
func E9PhaseDynamics(c Config) []*report.Table {
	var tables []*report.Table
	for _, fam := range c.families() {
		n := c.sizes()[len(c.sizes())-1]
		g := c.graph(fam, n, 17*int64(n))
		phases, err := phaseDynamics(g)
		if err != nil {
			panic(fmt.Sprintf("experiments: E9 %s n=%d: %v", fam, g.N(), err))
		}
		t := report.New(fmt.Sprintf("E9  decomposition dynamics on %s (n=%d)", fam, g.N()),
			"phase i", "fragments", "bound n/2^(i-1)", "active", "min |F|", "max |F|", "edges selected")
		for i, ph := range phases {
			t.Add(i+1, ph.frags, g.N()>>i, ph.active, ph.minSize, ph.maxSize, ph.selected)
		}
		t.Note = "fragment counts at most n/2^(i-1) (Lemma 1); selected edges sum to n-1"
		tables = append(tables, t)
	}
	return tables
}

// E10RoundProfile breaks the Theorem 3 decoder's communication down by
// schedule window: the setup exchange, each packed-phase window
// (announce, convergecast, broadcast, selection) and the final collect.
// It exposes the structure the round bound is made of.
func E10RoundProfile(c Config) []*report.Table {
	n := c.sizes()[len(c.sizes())-1]
	g := c.graph("random", n, 23*int64(n))
	res := mustRun(core.Scheme{}, g, 0, sim.Options{})
	if !res.Verified {
		panic("experiments: e10 run failed verification")
	}
	sched := core.NewSchedule(g.N(), core.DefaultCap)
	t := report.New(fmt.Sprintf("E10  Theorem 3 communication per schedule window (random, n=%d)", g.N()),
		"window", "rounds", "messages", "total bits", "max round bits")
	type agg struct {
		rounds, msgs int
		bits, maxR   int64
	}
	buckets := map[string]*agg{}
	order := []string{"setup"}
	for i := 1; i <= sched.P; i++ {
		order = append(order, fmt.Sprintf("phase %d", i))
	}
	order = append(order, "final collect")
	name := func(round int) string {
		kind, phase, _ := sched.Locate(round)
		switch kind {
		case core.KindPhase:
			return fmt.Sprintf("phase %d", phase)
		case core.KindFinal:
			return "final collect"
		default:
			return "setup"
		}
	}
	// PerRound[k] records the sends of round k, delivered in round k+1 —
	// attribute them to the window that consumes them.
	perRound := map[int]sim.RoundStats{}
	for _, rs := range res.PerRound {
		perRound[rs.Round] = rs
	}
	for round := 0; round <= sched.Total(); round++ {
		bucket := name(round + 1) // sends of this round are consumed next round
		if round == 0 {
			bucket = "setup"
		}
		a := buckets[bucket]
		if a == nil {
			a = &agg{}
			buckets[bucket] = a
		}
		a.rounds++
		if rs, ok := perRound[round]; ok {
			a.msgs += rs.Messages
			a.bits += rs.Bits
			if rs.Bits > a.maxR {
				a.maxR = rs.Bits
			}
		}
	}
	for _, w := range order {
		a := buckets[w]
		if a == nil {
			continue
		}
		t.Add(w, a.rounds, a.msgs, a.bits, a.maxR)
	}
	t.Note = "window cost doubles per phase (2^(i+1)+2 rounds); the final collect adds ⌈log n⌉+2"
	return []*report.Table{t}
}

// E11Churn is the dynamic-network sweep (extension beyond the paper; see
// DESIGN.md §2.4): per-edge MST sensitivity tolerances, incremental
// advice recomputation under weight churn measured against the full
// oracle, and the Theorem 3 decoder running to the exact MST while
// non-tree links fail mid-run. Unlike the classic experiments it sweeps
// every registered family by default.
func E11Churn(c Config) []*report.Table {
	n := c.sizes()[len(c.sizes())-1]
	fams := c.allFamilies()

	t1 := report.New(fmt.Sprintf("E11a  MST sensitivity: per-edge tolerances (n≈%d)", n),
		"family", "n", "m", "bridges", "avg tree slack", "min tree slack", "avg non-tree slack", "fragile non-tree")
	t2 := report.New(fmt.Sprintf("E11b  incremental advice under weight churn (n≈%d, 24 batches)", n),
		"family", "incremental", "full recomputes", "nodes re-encoded", "advice == oracle")
	t3 := report.New(fmt.Sprintf("E11c  Theorem 3 decode under link failures (n≈%d, non-tree links down from round 2)", n),
		"family", "failed links", "rounds", "link-dropped msgs", "undelivered", "exact MST")

	for fi, fam := range fams {
		g := c.graph(fam, n, 29*int64(n)+int64(fi))
		sens, err := dynamic.Analyze(g)
		if err != nil {
			panic(fmt.Sprintf("experiments: e11 %s: %v", fam, err))
		}

		// --- E11a: tolerance statistics.
		bridges, fragile := 0, 0
		var treeSlackSum, nonTreeSlackSum int64
		treeBounded, nonTreeCount := 0, 0
		minTreeSlack := int64(-1)
		for e := 0; e < g.M(); e++ {
			slack, bounded := sens.Slack(graph.EdgeID(e))
			if sens.InTree[e] {
				if !bounded {
					bridges++
					continue
				}
				treeBounded++
				treeSlackSum += slack
				if minTreeSlack < 0 || slack < minTreeSlack {
					minTreeSlack = slack
				}
			} else {
				nonTreeCount++
				nonTreeSlackSum += slack
				if slack == 0 {
					fragile++
				}
			}
		}
		avg := func(sum int64, cnt int) string {
			if cnt == 0 {
				return "-"
			}
			return fmt.Sprintf("%.1f", float64(sum)/float64(cnt))
		}
		minStr := "-"
		if minTreeSlack >= 0 {
			minStr = fmt.Sprintf("%d", minTreeSlack)
		}
		t1.Add(fam, g.N(), g.M(), bridges,
			avg(treeSlackSum, treeBounded), minStr, avg(nonTreeSlackSum, nonTreeCount), fragile)

		// --- E11b: churn the advisor, then check it against the full oracle.
		adv, err := dynamic.NewAdvisor(g.Clone(), 0, core.DefaultCap)
		if err != nil {
			panic(fmt.Sprintf("experiments: e11 %s: %v", fam, err))
		}
		rng := c.rng(31*int64(n) + 1009*int64(fi))
		for k := 0; k < 24; k++ {
			var batch graph.Batch
			if k%3 != 2 { // tolerant raise of a random non-tree edge (if any)
				for tries := 0; tries < 8; tries++ {
					e := graph.EdgeID(rng.Intn(adv.Graph().M()))
					if !adv.Sensitivity().InTree[e] {
						batch.Weights = append(batch.Weights, graph.WeightUpdate{
							Edge: e, W: adv.Graph().Weight(e) + graph.Weight(rng.Intn(3)+1)})
						break
					}
				}
			}
			if batch.Empty() { // tree-heavy family or k%3==2: random reweight
				e := graph.EdgeID(rng.Intn(adv.Graph().M()))
				batch.Weights = append(batch.Weights, graph.WeightUpdate{
					Edge: e, W: graph.Weight(rng.Intn(2*adv.Graph().M()) + 1)})
			}
			if _, err := adv.Update(batch); err != nil {
				panic(fmt.Sprintf("experiments: e11 %s update %d: %v", fam, k, err))
			}
		}
		fresh, err := core.BuildAdvice(adv.Graph(), 0, core.DefaultCap)
		if err != nil {
			panic(fmt.Sprintf("experiments: e11 %s oracle: %v", fam, err))
		}
		identical := len(fresh) == len(adv.Advice())
		for u := range fresh {
			if !identical || fresh[u].String() != adv.Advice()[u].String() {
				identical = false
				break
			}
		}
		if !identical {
			panic(fmt.Sprintf("experiments: e11 %s: incremental advice diverged from the oracle", fam))
		}
		st := adv.Stats()
		t2.Add(fam, st.FastPath, st.FullRecomputes, st.NodesReencoded, identical)

		// --- E11c: decode with non-tree links failing after setup. The
		// decoder still uses non-tree links then, so a run may fail; the
		// table records the verdict or the error.
		failed := 12
		if nonTreeCount < failed {
			failed = nonTreeCount
		}
		sc := dynamic.NonTreeLinkFailures(sens, failed, 2)
		res, err := advice.Run(core.Scheme{}, g, 0, sim.Options{Scenario: sc})
		if err != nil {
			t3.Add(fam, failed, "-", "-", "-", fmt.Sprintf("error: %v", err))
		} else {
			t3.Add(fam, failed, res.Rounds, res.LinkDropped, res.Undelivered, res.Verified)
		}
	}
	t1.Note = "tree slack: headroom before a tree edge is evicted; fragile non-tree edges sit exactly at their tolerance"
	t2.Note = "tolerant non-tree churn re-encodes only final-stage carrier nodes; advice verified byte-identical to the oracle"
	t3.Note = "each phase's broadcast sends level reports over non-tree links and the chooser reads them, so failures from round 2 can break a decode; from the final window on they never change the output"
	return []*report.Table{t1, t2, t3}
}

// E8Congest contrasts message sizes across schemes against B = ⌈log n⌉ and
// audits each run with the engine's CONGEST(B') checker at B' = ⌈log n⌉²,
// the polylog budget our record-batching deviation targets.
func E8Congest(c Config) []*report.Table {
	t := report.New("E8  CONGEST accounting: maximum message size [bits] vs B = ⌈log n⌉",
		"family", "n", "B", "trivial", "oneround", "core", "noadvice", "pipeline", "localgather", "core >B² msgs", "localgather >B² msgs")
	schemes := []advice.Scheme{
		trivial.Scheme{}, oneround.Scheme{}, core.Scheme{}, noadvice.Scheme{}, pipeline.Scheme{}, localgather.Scheme{},
	}
	for _, fam := range c.families() {
		for _, n := range c.sizes() {
			g := c.graph(fam, n, 13*int64(n))
			logn := graph.CeilLog2(g.N())
			row := []interface{}{fam, g.N(), logn}
			violations := map[string]int64{}
			for _, s := range schemes {
				res := mustRun(s, g, 0, sim.Options{CongestB: logn * logn})
				row = append(row, res.MaxMsgBits)
				violations[s.Name()] = res.CongestViolations
			}
			row = append(row, violations["core"], violations["localgather"])
			t.Add(row...)
		}
	}
	t.Note = "localgather trades bandwidth for time (LOCAL model); advice schemes stay within polylog budgets"
	return []*report.Table{t}
}

package main

// The correctness side: match records written by the emit callback into
// storage allocated before the run, and the checker that compares them,
// after each pass, with the oracle computed at input generation.

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	dpi "repro"
)

// rec is one emitted match. t is the emit time in ns since the pass's
// base, on passes that time matches, and 0 otherwise.
type rec struct {
	flow, pat, end, pkt int32
	t                   int64
}

// recorder is the emit side: one atomic add and one store per match,
// into a slice sized from the oracle before the run. Matches past its
// capacity are counted but not stored, and fail the check.
type recorder struct {
	w    *workload
	recs []rec
	n    atomic.Int64
	base time.Time
}

func newRecorder(w *workload) *recorder {
	return &recorder{w: w, recs: make([]rec, w.wantTotal+w.wantTotal/4+1024)}
}

func (r *recorder) reset(base time.Time) {
	r.n.Store(0)
	r.base = base
}

func (r *recorder) emit(fm dpi.FlowMatch) {
	if i := r.n.Add(1) - 1; i < int64(len(r.recs)) {
		r.recs[i] = rec{flow: int32(r.w.flowPos(fm.Tuple)), pat: int32(fm.PatternID), end: int32(fm.End), pkt: int32(fm.PacketID)}
	}
}

func (r *recorder) emitTimed(fm dpi.FlowMatch) {
	t := int64(time.Since(r.base))
	if i := r.n.Add(1) - 1; i < int64(len(r.recs)) {
		r.recs[i] = rec{flow: int32(r.w.flowPos(fm.Tuple)), pat: int32(fm.PatternID), end: int32(fm.End), pkt: int32(fm.PacketID), t: t}
	}
}

// checker holds the scratch the comparison needs, allocated once.
type checker struct {
	w      *workload
	off    []int32 // per flow: start of its records in byFlow
	fill   []int32
	byFlow []rec
}

func newChecker(w *workload, capacity int) *checker {
	return &checker{w: w, off: make([]int32, len(w.flows)+1), fill: make([]int32, len(w.flows)), byFlow: make([]rec, capacity)}
}

// outcome is one pass's verdict. failedFlows counts flows whose matches
// differ from the oracle; problems lists every failure that is not a
// counted gap-clock loss on a late flow, and any problem fails the run.
type outcome struct {
	failedFlows int
	problems    []string
}

func (o *outcome) problem(format string, a ...any) {
	if len(o.problems) < 8 {
		o.problems = append(o.problems, fmt.Sprintf(format, a...))
	}
}

// check compares n records with the oracle, per flow: arrival in
// canonical (PacketID, End, PatternID) order, the (End, PatternID)
// multiset equal to the trie oracle of the flow's birth generation, and
// every planted occurrence reported.
func (c *checker) check(recs []rec, n int64) outcome {
	var o outcome
	if n > int64(len(recs)) {
		o.problem("%d matches emitted, more than the %d the oracle allows room for", n, len(recs))
		n = int64(len(recs))
	}
	for i := range c.off {
		c.off[i] = 0
	}
	for _, r := range recs[:n] {
		if r.flow < 0 || int(r.flow) >= len(c.w.flows) {
			o.problem("match on a tuple no flow owns (index %d)", r.flow)
			return o
		}
		c.off[r.flow+1]++
	}
	for i := 1; i < len(c.off); i++ {
		c.off[i] += c.off[i-1]
	}
	copy(c.fill, c.off)
	for _, r := range recs[:n] {
		c.byFlow[c.fill[r.flow]] = r
		c.fill[r.flow]++
	}
	for i := range c.w.flows {
		f := &c.w.flows[i]
		got := c.byFlow[c.off[i]:c.off[i+1]]
		canonical, sorted := true, true
		for k := 1; k < len(got); k++ {
			a, b := got[k-1], got[k]
			if !(a.pkt < b.pkt || a.pkt == b.pkt && (a.end < b.end || a.end == b.end && a.pat < b.pat)) {
				canonical = false
			}
			if !(a.end < b.end || a.end == b.end && a.pat < b.pat) {
				sorted = false
			}
		}
		if !sorted {
			sort.Slice(got, func(x, y int) bool {
				return got[x].end < got[y].end || got[x].end == got[y].end && got[x].pat < got[y].pat
			})
		}
		equal := len(got) == len(f.want)
		for k := 0; equal && k < len(got); k++ {
			equal = int(got[k].end) == f.want[k].End && got[k].pat == f.want[k].PatternID
		}
		planted := true
		for _, pl := range f.plants {
			k := sort.Search(len(got), func(k int) bool {
				return int(got[k].end) > pl.End || int(got[k].end) == pl.End && got[k].pat >= pl.PatternID
			})
			planted = planted && k < len(got) && int(got[k].end) == pl.End && got[k].pat == pl.PatternID
		}
		if canonical && equal && planted {
			continue
		}
		o.failedFlows++
		if !f.late {
			o.problem("flow %d (%s): %d matches, oracle %d; canonical order %v, plants reported %v",
				i, f.tuple, len(got), len(f.want), canonical, planted)
		}
	}
	return o
}

// checkStats holds the gateway-wide invariants after Close.
func (c *checker) checkStats(o *outcome, st dpi.GatewayStats, n int64) {
	if !st.Ledger().Balanced() {
		o.problem("conservation ledger unbalanced after Close: %+v", st.Ledger())
	}
	if st.Packets != uint64(len(c.w.pkts)) {
		o.problem("gateway counted %d packets, %d were replayed", st.Packets, len(c.w.pkts))
	}
	if st.Matches != uint64(n) {
		o.problem("gateway counted %d matches, the callback saw %d", st.Matches, n)
	}
	if st.GenerationsRetired != st.GenerationsInstalled-1 {
		o.problem("after Close %d generations retired of %d installed", st.GenerationsRetired, st.GenerationsInstalled)
	}
	if st.GenerationsInstalled != uint64(len(c.w.genRules)) {
		o.problem("%d generations installed, want %d", st.GenerationsInstalled, len(c.w.genRules))
	}
}

// selfTest proves the checker can fail: with one record of a flow that
// passed dropped, and then with one record altered, the check must
// report a failure it did not report on the true records.
func (c *checker) selfTest(recs []rec, n int64) error {
	base := c.check(recs, n)
	if len(base.problems) > 0 || n < 2 {
		return fmt.Errorf("self-test needs a clean pass with matches")
	}
	k := int64(-1)
	for i := int64(0); i < n; i++ {
		if !c.w.flows[recs[i].flow].late {
			k = i
			break
		}
	}
	if k < 0 {
		return fmt.Errorf("self-test found no match on an in-order flow")
	}
	saved := recs[k]
	copy(recs[k:n], recs[k+1:n])
	dropped := c.check(recs, n-1)
	copy(recs[k+1:n], recs[k:n-1])
	recs[k] = saved
	recs[k].end++
	altered := c.check(recs, n)
	recs[k] = saved
	if len(dropped.problems) == 0 {
		return fmt.Errorf("self-test: the checker accepted a pass with one match dropped")
	}
	if len(altered.problems) == 0 {
		return fmt.Errorf("self-test: the checker accepted a pass with one match altered")
	}
	return nil
}

package main

// Input generation. Every workload is built from --seed alone, before any
// timing, and carries its own ground truth: per-flow true streams, the
// planted occurrences, and the expected (End, PatternID) multiset computed
// by the uncompressed Aho-Corasick trie of the flow's birth generation.

import (
	"bytes"
	"fmt"
	"sort"

	dpi "repro"
	"repro/internal/ac"
	"repro/internal/capture"
	"repro/internal/nids"
	"repro/internal/rng"
	"repro/internal/ruleset"
	"repro/internal/traffic"
)

const (
	rulesetSize = 634
	// gapTimeout is the gateway's default GapTimeout. The generator proves
	// that reordered flows stall well clear of it and that the small
	// workload's late segments stall well past it.
	gapTimeout = 4096
	// stallMargin keeps both proofs this far from gapTimeout: the
	// gateway's clock counts stream packets as its lanes reach them, which
	// can differ from ingest order by up to the queued packets.
	stallMargin = 1024
	// reorderBound is how many places a bulk or reload segment may be
	// displaced within its own flow.
	reorderBound = 3
	// lateEvery marks one small-workload flow in this many as late.
	lateEvery = 64
	// lateSeed fixes the bytes of late flows, so the failures they cause
	// do not depend on --seed.
	lateSeed = 1
	// reloadGens is the number of ruleset generations a reload pass
	// installs. Bulk installs bulkGens and small smallGens generations of
	// one ruleset: no-op reloads, which time the swap stall on their
	// traffic. Small makes more of them because its stalls are short
	// (about a millisecond) and vary most from one swap to the next.
	reloadGens = 5
	bulkGens   = 6
	smallGens  = 11
	// rulesetSeed seeds generation 0's ruleset; generation g uses
	// rulesetSeed+g.
	rulesetSeed = 1
	// udpBase is the flow index of the first datagram.
	udpBase = 1 << 22
)

// flowSpec is one oracle unit: a TCP connection, or one UDP datagram.
type flowSpec struct {
	tuple  nids.FiveTuple
	gen    int // birth generation, in install order
	stream []byte
	cuts   []int // TCP: segment i is stream[cuts[i]:cuts[i+1]]
	plants []traffic.Plant
	late   bool       // carries a segment the gap-clock fault skips
	want   []ac.Match // trie oracle, sorted (End, PatternID)
}

// packet is one captured frame before pcap encoding.
type packet struct {
	flow    int32
	seg     int32 // segment index within its flow; -1 for a datagram
	seq     uint32
	flags   byte // capture.Flag* bits
	payload []byte
}

type workload struct {
	name     string
	rulesets []*dpi.Ruleset // distinct rulesets
	genRules []int          // per installed generation: index into rulesets
	flows    []flowSpec     // TCP flows, then datagrams
	nTCP     int
	pkts     []packet
	swapAt   []int // swap j installs generation j+1 before packet swapAt[j]
	peakAt   int   // the most flows are open after packets [0, peakAt)
	rateGbps float64

	pcap      []byte
	recOff    []int // record i spans pcap[recOff[i]:recOff[i+1]]
	tcpPkts   int
	udpPkts   int
	chunks    int // in-order data chunks the stream path delivers
	payload   int64
	wantTotal int
	lateFlows int
	maxStall  int // longest gap stall of a reordered flow, stream packets
	maxDisp   int // largest displacement of a segment in its flow
}

func tupleFor(idx int, udp bool) nids.FiveTuple {
	t := nids.FiveTuple{
		SrcIP:   nids.IPv4(10, byte(idx>>16), byte(idx>>8), byte(idx)),
		DstIP:   nids.IPv4(192, 168, 0, 1),
		SrcPort: uint16(1024 + idx%50000),
		DstPort: 80,
		Proto:   nids.ProtoTCP,
	}
	if udp {
		t.DstPort, t.Proto = 53, nids.ProtoUDP
	}
	return t
}

// flowPos maps a tuple made by tupleFor to its position in w.flows with
// arithmetic alone, so emit callbacks need no map.
func (w *workload) flowPos(t nids.FiveTuple) int {
	idx := int(t.SrcIP & 0xFFFFFF)
	if idx >= udpBase {
		return w.nTCP + idx - udpBase
	}
	return idx
}

// tcpFlow is a connection under construction: where its stream is cut
// into segments and in which order the segments are delivered (indices
// into the cuts; a repeated index is an exact-copy retransmission).
type tcpFlow struct {
	idx   int
	isn   uint32
	cuts  []int // segment i is stream[cuts[i]:cuts[i+1]]
	sched []int
	next  int // deliveries emitted so far
}

func evenCuts(n, seg int) []int {
	c := make([]int, n+1)
	for i := range c {
		c[i] = i * seg
	}
	return c
}

// boundedReorder returns a delivery order of n segments in which segment 0
// (the SYN) stays first and every other segment lands at most d places
// from its own position. Sorting by i+u, u uniform in [0, d+1], lets j pass
// i only when j-i < u_i-u_j <= d+1; finish re-checks the bound on the
// emitted packets.
func boundedReorder(src *rng.Source, n, d int) []int {
	key := make([]int, n)
	order := make([]int, n)
	for i := range order {
		order[i] = i
		key[i] = i
		if i > 0 {
			key[i] += src.Intn(d + 2)
		}
	}
	rest := order[1:]
	sort.Slice(rest, func(a, b int) bool {
		x, y := rest[a], rest[b]
		return key[x] < key[y] || key[x] == key[y] && x < y
	})
	return order
}

// withRetransmit inserts one exact copy of a random non-SYN segment 1..4
// deliveries after its original.
func withRetransmit(src *rng.Source, order []int) []int {
	a := 1 + src.Intn(len(order)-1)
	b := a + 1 + src.Intn(4)
	if b > len(order) {
		b = len(order)
	}
	order = append(order, 0)
	copy(order[b+1:], order[b:])
	order[b] = order[a]
	return order
}

// deliver appends one packet per delivery, in rounds: each round every
// flow still below its quota emits its next delivery. With fixed, one
// seeded flow order serves every round, so consecutive packets of a flow
// are exactly one round apart; otherwise each round is reshuffled.
func (w *workload) deliver(src *rng.Source, flows []*tcpFlow, quota func(*tcpFlow) int, fixed bool) {
	perm := src.Perm(len(flows))
	for {
		if !fixed {
			perm = src.Perm(len(flows))
		}
		emitted := false
		for _, i := range perm {
			f := flows[i]
			if f.next >= quota(f) {
				continue
			}
			seg := f.sched[f.next]
			f.next++
			emitted = true
			p := packet{
				flow:    int32(f.idx),
				seg:     int32(seg),
				seq:     f.isn + 1 + uint32(f.cuts[seg]),
				flags:   capture.FlagSeq,
				payload: w.flows[f.idx].stream[f.cuts[seg]:f.cuts[seg+1]],
			}
			if seg == 0 {
				p.seq = f.isn // data logically starts at ISN+1
				p.flags |= capture.FlagSYN
			}
			if seg == len(f.cuts)-2 {
				p.flags |= capture.FlagFIN
			}
			w.pkts = append(w.pkts, p)
		}
		if !emitted {
			return
		}
	}
}

func all(f *tcpFlow) int { return len(f.sched) }

// noopSwaps spreads the no-op reloads evenly over the pass.
func (w *workload) noopSwaps() {
	gens := len(w.genRules)
	for g := 1; g < gens; g++ {
		w.swapAt = append(w.swapAt, g*len(w.pkts)/gens)
	}
}

// newWorkload makes the rulesets a workload installs: gens generations,
// each of its own ruleset when distinct, else all of one. Rulesets do not
// depend on --seed: the match density they give on the generated traffic
// sets the scan cost, and one fixed ruleset per generation keeps that cost
// the same from seed to seed, so the seed varies the traffic alone.
func newWorkload(name string, gens int, distinct bool, rate float64) (*workload, error) {
	w := &workload{name: name, rateGbps: rate}
	for g := 0; g < gens; g++ {
		if g == 0 || distinct {
			rs, err := dpi.GenerateSnortLike(rulesetSize, rulesetSeed+int64(g))
			if err != nil {
				return nil, err
			}
			w.rulesets = append(w.rulesets, rs)
		}
		w.genRules = append(w.genRules, len(w.rulesets)-1)
	}
	return w, nil
}

// buildBulk: 256 concurrent flows of MTU-sized segments with bounded
// reorder and one retransmission each, plus one UDP datagram per ~16 TCP
// segments.
func buildBulk(seed int64) (*workload, error) {
	w, err := newWorkload("bulk", bulkGens, false, 0.05)
	if err != nil {
		return nil, err
	}
	const nFlows, segs, segBytes = 256, 32, 1400
	set := w.rulesets[0].InternalSet()
	src := rng.New(seed ^ 0x6275)
	fw, err := traffic.GenerateFlows(set, traffic.FlowConfig{
		Flows: nFlows, SegmentsPerFlow: segs, SegmentBytes: segBytes, Seed: seed,
		CrossDensity: 4, AttackDensity: 2, Profile: traffic.Textual,
	})
	if err != nil {
		return nil, err
	}
	flows := make([]*tcpFlow, nFlows)
	for f := range flows {
		flows[f] = &tcpFlow{idx: f, isn: uint32(src.Uint64()), cuts: evenCuts(segs, segBytes)}
		flows[f].sched = withRetransmit(src, boundedReorder(src, segs, reorderBound))
		w.flows = append(w.flows, flowSpec{tuple: tupleFor(f, false), cuts: flows[f].cuts, stream: fw.Streams[f], plants: fw.Planted[f]})
	}
	w.nTCP = nFlows
	w.deliver(src, flows, all, false)
	w.noopSwaps()
	if err := w.addDatagrams(src, set, 16, 200, 1400); err != nil {
		return nil, err
	}
	return w, w.finish()
}

// buildSmall: 16384 concurrently open in-order flows of 64-128 B
// segments and DNS-sized datagrams. One flow in lateEvery has segment 3
// delivered after segments 4 and 5.
func buildSmall(seed int64) (*workload, error) {
	w, err := newWorkload("small", smallGens, false, 0.02)
	if err != nil {
		return nil, err
	}
	const nFlows, segs, segBytes = 16384, 8, 96
	set := w.rulesets[0].InternalSet()
	src := rng.New(seed ^ 0x736d)
	fw, err := traffic.GenerateFlows(set, traffic.FlowConfig{
		Flows: nFlows, SegmentsPerFlow: segs, SegmentBytes: segBytes, Seed: seed,
		CrossDensity: 1, AttackDensity: 0.5, Profile: traffic.Textual,
	})
	if err != nil {
		return nil, err
	}
	lw, err := traffic.GenerateFlows(set, traffic.FlowConfig{
		Flows: nFlows / lateEvery, SegmentsPerFlow: segs, SegmentBytes: segBytes, Seed: lateSeed, Profile: traffic.Textual,
	})
	if err != nil {
		return nil, err
	}
	plant := latePattern(set)
	flows := make([]*tcpFlow, nFlows)
	for f := range flows {
		tf := &tcpFlow{idx: f, isn: uint32(src.Uint64()), cuts: evenCuts(segs, segBytes)}
		fs := flowSpec{tuple: tupleFor(f, false), cuts: tf.cuts, stream: fw.Streams[f], plants: fw.Planted[f]}
		if f%lateEvery == lateEvery-1 {
			// The late segment's bytes, and the pattern planted wholly
			// inside it, are the same on every seed, so the match the
			// gap skip loses is always there to lose.
			fs.late = true
			fs.stream = lw.Streams[f/lateEvery]
			end := 3*segBytes + (segBytes+len(plant.Data))/2
			copy(fs.stream[end-len(plant.Data):], plant.Data)
			fs.plants = []traffic.Plant{{PatternID: int32(plant.ID), End: end}}
			tf.sched = []int{0, 1, 2, 4, 5, 3, 6, 7}
		} else {
			for i := 1; i < segs; i++ {
				tf.cuts[i] += src.Intn(33) - 16 // 64-128 B segments
			}
			tf.sched = []int{0, 1, 2, 3, 4, 5, 6, 7}
		}
		w.flows = append(w.flows, fs)
		flows[f] = tf
	}
	w.nTCP = nFlows
	w.deliver(src, flows, all, true)
	w.noopSwaps()
	if err := w.addDatagrams(src, set, 8, 40, 120); err != nil {
		return nil, err
	}
	return w, w.finish()
}

// latePattern picks the pattern planted in late segments by a fixed rule:
// the lowest-ID pattern of 8 to 48 bytes.
func latePattern(set *ruleset.Set) ruleset.Pattern {
	var best *ruleset.Pattern
	for i := range set.Patterns {
		p := &set.Patterns[i]
		if len(p.Data) >= 8 && len(p.Data) <= 48 && (best == nil || p.ID < best.ID) {
			best = p
		}
	}
	return *best
}

// buildReload: bulk-like traffic in waves over reloadGens distinct
// rulesets. A pass runs reloadGens+2 phases; the swap before phase g
// installs generation g, wave g opens in phase g (so it is born on
// generation g) and delivers a third of its segments in each of phases
// g, g+1 and g+2. Every swap therefore leaves flows pinned to two older
// generations, and each generation retires under traffic when its wave
// finishes.
func buildReload(seed int64) (*workload, error) {
	w, err := newWorkload("reload", reloadGens, true, 0.05)
	if err != nil {
		return nil, err
	}
	const perWave, segs, segBytes = 96, 24, 1400
	src := rng.New(seed ^ 0x726c)
	waves := make([][]*tcpFlow, reloadGens)
	for g := range waves {
		fw, err := traffic.GenerateFlows(w.rulesets[g].InternalSet(), traffic.FlowConfig{
			Flows: perWave, SegmentsPerFlow: segs, SegmentBytes: segBytes, Seed: seed*31 + int64(g),
			CrossDensity: 3, AttackDensity: 2, Profile: traffic.Textual,
		})
		if err != nil {
			return nil, err
		}
		for i := 0; i < perWave; i++ {
			idx := len(w.flows)
			tf := &tcpFlow{idx: idx, isn: uint32(src.Uint64()), cuts: evenCuts(segs, segBytes)}
			tf.sched = withRetransmit(src, boundedReorder(src, segs, reorderBound))
			w.flows = append(w.flows, flowSpec{tuple: tupleFor(idx, false), cuts: tf.cuts, gen: g, stream: fw.Streams[i], plants: fw.Planted[i]})
			waves[g] = append(waves[g], tf)
		}
	}
	w.nTCP = len(w.flows)
	for p := 0; p < reloadGens+2; p++ {
		if p > 0 && p < reloadGens {
			w.swapAt = append(w.swapAt, len(w.pkts))
		}
		var alive []*tcpFlow
		for g := p - 2; g <= p; g++ {
			if g >= 0 && g < reloadGens {
				alive = append(alive, waves[g]...)
			}
		}
		phase := p
		w.deliver(src, alive, func(f *tcpFlow) int {
			k := phase - w.flows[f.idx].gen + 1 // thirds delivered by the end of this phase
			return k * len(f.sched) / 3
		}, false)
	}
	if err := w.addDatagrams(src, w.rulesets[0].InternalSet(), 16, 200, 1400); err != nil {
		return nil, err
	}
	return w, w.finish()
}

// addDatagrams mixes in len(pkts)/every UDP datagrams of minLen..maxLen
// textual bytes at random places. Each datagram is its own oracle unit,
// scanned with the generation current at its position (bursts cut over
// at the swap). Swap positions keep pointing at the same TCP packet.
func (w *workload) addDatagrams(src *rng.Source, set *ruleset.Set, every, minLen, maxLen int) error {
	n := len(w.pkts) / every
	gp, err := traffic.Generate(set, traffic.Config{Packets: n, Bytes: maxLen, Seed: int64(src.Uint64() >> 1), AttackDensity: 0.5, Profile: traffic.Textual})
	if err != nil {
		return err
	}
	merged := make([]packet, 0, len(w.pkts)+n)
	d, sw, gen := 0, 0, 0
	for i, p := range w.pkts {
		for sw < len(w.swapAt) && w.swapAt[sw] == i {
			w.swapAt[sw] = len(merged)
			sw++
			gen++
		}
		merged = append(merged, p)
		left := len(w.pkts) - i - 1
		if d < n && (src.Intn(every) == 0 || left < n-d) {
			payload := gp[d].Payload[:minLen+src.Intn(maxLen-minLen+1)]
			w.flows = append(w.flows, flowSpec{tuple: tupleFor(udpBase+d, true), gen: gen, stream: payload})
			merged = append(merged, packet{flow: int32(udpBase + d), seg: -1, payload: payload})
			d++
		}
	}
	w.pkts = merged
	return nil
}

// finish proves the schedule's properties on the emitted packets, finds
// the peak-open point, and builds the oracle and the pcap.
//
// Each TCP flow is replayed through a model of reassembly.Stream's gap
// timer, in the gateway's tick space (stream packets in ingest order):
// armed by the first arrival that leaves bytes held, reset only when
// nothing is held, checked on every later arrival of that flow. A
// reordered flow must never stall within stallMargin of gapTimeout; a
// late flow must stall past gapTimeout by at least stallMargin, so the
// gateway skips its late segment on every run.
func (w *workload) finish() error {
	type model struct {
		got        []bool
		next, held int
		since      int
		placed     int
		skipped    bool
		closed     bool
	}
	models := make([]*model, w.nTCP)
	tick, open, peak := 0, 0, -1
	for i, p := range w.pkts {
		w.payload += int64(len(p.payload))
		if p.seg < 0 {
			w.udpPkts++
			continue
		}
		w.tcpPkts++
		fs := &w.flows[p.flow]
		m := models[p.flow]
		if m == nil {
			m = &model{got: make([]bool, len(fs.cuts))}
			models[p.flow] = m
			open++
		}
		s := int(p.seg)
		if s >= m.next && !m.got[s] {
			m.got[s] = true
			m.held++
			if d := s - m.placed; d > w.maxDisp {
				w.maxDisp = d
			} else if -d > w.maxDisp {
				w.maxDisp = -d
			}
			m.placed++
		}
		for m.got[m.next] {
			m.got[m.next] = false
			m.next++
			m.held--
			w.chunks++
		}
		switch {
		case m.held == 0:
			m.since = 0
		case m.since == 0:
			m.since = tick + 1
		default:
			stall := tick + 1 - m.since
			if !fs.late && stall > w.maxStall {
				w.maxStall = stall
			}
			if fs.late && stall >= gapTimeout {
				if stall < gapTimeout+stallMargin {
					return fmt.Errorf("%s: late flow %d stalls only %d stream packets", w.name, p.flow, stall)
				}
				// The gateway skips the gap here; model it so the late
				// segment then counts as a duplicate, as it does there.
				for !m.got[m.next] {
					m.next++
				}
				for m.got[m.next] {
					m.got[m.next] = false
					m.next++
					m.held--
					w.chunks++
				}
				m.since, m.skipped = 0, true
				if m.held > 0 {
					m.since = tick + 1
				}
			}
		}
		tick++
		if m.next == len(fs.cuts)-1 && !m.closed {
			m.closed = true
			open--
		}
		if open > peak {
			peak, w.peakAt = open, i+1
		}
	}
	if w.maxStall >= gapTimeout-stallMargin {
		return fmt.Errorf("%s: a reordered flow stalls %d stream packets, too near GapTimeout %d", w.name, w.maxStall, gapTimeout)
	}
	if w.maxDisp > reorderBound {
		return fmt.Errorf("%s: a segment is displaced %d places, over the bound %d", w.name, w.maxDisp, reorderBound)
	}
	for i, m := range models {
		if w.flows[i].late {
			w.lateFlows++
			if !m.skipped {
				return fmt.Errorf("%s: late flow %d is never skipped", w.name, i)
			}
		}
	}
	if err := w.oracle(); err != nil {
		return err
	}
	return w.buildPcap()
}

// oracle computes every flow's expected matches with the uncompressed
// trie of its birth generation's ruleset, proves each planted occurrence
// is among them, and re-checks a fixed sample of flows with the naive
// byte-compare oracle.
func (w *workload) oracle() error {
	tries := make([]*ac.Trie, len(w.rulesets))
	for i, rs := range w.rulesets {
		t, err := ac.New(rs.InternalSet())
		if err != nil {
			return err
		}
		tries[i] = t
	}
	for i := range w.flows {
		f := &w.flows[i]
		f.want = tries[w.genRules[f.gen]].FindAll(f.stream)
		ac.SortMatches(f.want)
		w.wantTotal += len(f.want)
		for _, pl := range f.plants {
			if !hasMatch(f.want, pl.End, pl.PatternID) {
				return fmt.Errorf("%s: flow %d: trie oracle misses planted pattern %d ending at %d", w.name, i, pl.PatternID, pl.End)
			}
		}
	}
	for _, i := range []int{0, w.nTCP / 2, w.nTCP - 1, w.nTCP, len(w.flows) - 1} {
		f := &w.flows[i]
		naive := ac.NewOracle(w.rulesets[w.genRules[f.gen]].InternalSet()).FindAll(f.stream)
		if !ac.MatchesEqual(naive, append([]ac.Match(nil), f.want...)) {
			return fmt.Errorf("%s: flow %d: trie and naive oracles disagree", w.name, i)
		}
	}
	return nil
}

// hasMatch reports whether ms, sorted (End, PatternID), holds the match.
func hasMatch(ms []ac.Match, end int, pat int32) bool {
	i := sort.Search(len(ms), func(i int) bool {
		return ms[i].End > end || ms[i].End == end && ms[i].PatternID >= pat
	})
	return i < len(ms) && ms[i].End == end && ms[i].PatternID == pat
}

// buildPcap encodes the packets as one classic pcap and records where
// each record starts, so a replay can start and stop at any packet.
func (w *workload) buildPcap() error {
	var buf bytes.Buffer
	pw, err := capture.NewWriter(&buf, capture.WriterConfig{})
	if err != nil {
		return err
	}
	w.recOff = make([]int, 0, len(w.pkts)+1)
	for i, p := range w.pkts {
		w.recOff = append(w.recOff, buf.Len())
		t := tupleFor(int(p.flow), p.seg < 0)
		var frame []byte
		if p.seg < 0 {
			frame = capture.UDPFrame(t, p.payload, capture.FrameOptions{})
		} else {
			frame = capture.TCPFrame(t, p.seq, p.flags, p.payload, capture.FrameOptions{})
		}
		if err := pw.WriteRecord(uint32(i/1000000), uint32(i%1000000), frame, len(frame)); err != nil {
			return err
		}
	}
	w.recOff = append(w.recOff, buf.Len())
	w.pcap = buf.Bytes()
	return nil
}

package main

// Passes: one fresh gateway fed the workload's whole capture, with the
// workload's swaps between two Ingest calls, closed and checked. A
// saturated pass replays as fast as backpressure allows; a paced pass
// offers the packets on a fixed schedule and times each match from when
// its packet was due; a heap pass stops at the peak-open point to read
// the live heap; a traced pass records a span around every capture read
// and Ingest call.

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	dpi "repro"
	"repro/internal/capture"
)

type bench struct {
	w        *workload
	matchers []*dpi.Matcher // per installed generation
	rec      *recorder
	chk      *checker
	scrape   *scraper
	due      []int64 // per packet: ns after the paced pass's start
	latency  *hist   // paced passes: match emit time minus its packet's due time
	late     *hist   // paced passes: how late the feeder woke for each batch
	winLat   []int32 // one paced pass's latencies grouped by window, 100 ns units
	winLate  []int64 // one paced pass's latest feeder wake-up in each window, ns
	wins     []window
	selfTest bool    // the checker's self-test has run
	tr       *tracer // spans of the latest traced pass

	ops      ops
	problems []string
}

// ops is the operation accounting every run reports.
type ops struct {
	packets, packetsFailed int
	swaps, swapsFailed     int
	flows, flowsFailed     int
}

func (o ops) attempted() int { return o.packets + o.swaps + o.flows }
func (o ops) failed() int    { return o.packetsFailed + o.swapsFailed + o.flowsFailed }

type passKind int

const (
	saturated passKind = iota
	paced
	heapProbe
	tracedPass
)

type passResult struct {
	wall    time.Duration // first packet until Close returns
	drain   time.Duration // Close alone
	swaps   []time.Duration
	steal   float64 // share of the processor time asked for that the host withheld (stealShare)
	stats   dpi.GatewayStats
	genLive int // most generations live right after a swap

	cpu              time.Duration // process CPU over wall
	mallocs, pauseNs uint64

	heapBytes uint64 // heap pass: live heap at the peak-open point
	flowsLive int

	tr         *tracer // traced pass
	root       int32
	ingestSpan []int32 // per packet: its Ingest span
}

func newBench(w *workload) *bench {
	b := &bench{w: w, rec: newRecorder(w)}
	b.chk = newChecker(w, len(b.rec.recs))
	b.latency, b.late = newHist(), newHist()
	b.winLat = make([]int32, len(b.rec.recs))
	b.due = make([]int64, len(w.pkts))
	var bits float64
	for i, p := range w.pkts {
		// 1 Gbit/s is one bit per ns. A packet is due at the start of the
		// burst period its offered time falls in.
		b.due[i] = int64(bits/w.rateGbps) / burstPeriod * burstPeriod
		bits += float64(8 * len(p.payload))
	}
	return b
}

// setup compiles every generation the workload installs and starts a
// gateway: what the sensor does before its first packet. The gateway is
// closed unused; each pass starts its own.
func (b *bench) setup() (time.Duration, error) {
	t0 := time.Now()
	ms := make([]*dpi.Matcher, len(b.w.genRules))
	for g, ri := range b.w.genRules {
		m, err := dpi.Compile(b.w.rulesets[ri], dpi.Config{})
		if err != nil {
			return 0, err
		}
		ms[g] = m
	}
	gw, err := dpi.NewGateway(ms[0], dpi.GatewayConfig{}, b.rec.emit)
	if err != nil {
		return 0, err
	}
	d := time.Since(t0)
	if err := gw.Close(); err != nil {
		return 0, err
	}
	b.matchers = ms
	return d, nil
}

// pcapRange is a readable capture of packets [from, to).
func (b *bench) pcapRange(from, to int) io.Reader {
	return io.MultiReader(bytes.NewReader(b.w.pcap[:b.w.recOff[0]]), bytes.NewReader(b.w.pcap[b.w.recOff[from]:b.w.recOff[to]]))
}

func gatewayPacket(p capture.Packet) dpi.GatewayPacket {
	var fl dpi.TCPFlags
	if p.Flags&capture.FlagSeq != 0 {
		fl |= dpi.FlagSeq
	}
	if p.Flags&capture.FlagFIN != 0 {
		fl |= dpi.FlagFIN
	}
	if p.Flags&capture.FlagSYN != 0 {
		fl |= dpi.FlagSYN
	}
	if p.Flags&capture.FlagRST != 0 {
		fl |= dpi.FlagRST
	}
	return dpi.GatewayPacket{Tuple: p.Tuple, Seq: p.Seq, Flags: fl, Payload: p.Payload}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// pass runs one pass of the given kind and checks it. Its operations are
// added to b.ops and its problems to b.problems.
func (b *bench) pass(kind passKind, measureCPU bool) (*passResult, error) {
	w := b.w
	res := &passResult{}
	emit := b.rec.emit
	if kind == paced || kind == tracedPass {
		emit = b.rec.emitTimed
	}
	gw, err := dpi.NewGateway(b.matchers[0], dpi.GatewayConfig{}, emit)
	if err != nil {
		return nil, err
	}
	var ms0 runtime.MemStats
	if measureCPU {
		runtime.ReadMemStats(&ms0)
	}
	b.scrape.gw.Store(gw)
	mach0 := machineCPU()
	cpu0 := cpuTime()
	t0 := time.Now()
	b.rec.reset(t0)
	swap := func(j int) {
		ts := time.Now()
		err := gw.SwapRules(b.matchers[j+1])
		res.swaps = append(res.swaps, time.Since(ts))
		b.ops.swaps++
		if err != nil {
			b.ops.swapsFailed++
			b.problem("SwapRules to generation %d: %v", j+1, err)
		}
		if live := gw.Stats().GenerationsLive; live > res.genLive {
			res.genLive = live
		}
	}
	var feedErr error
	switch kind {
	case saturated, heapProbe:
		cuts := append([]int(nil), w.swapAt...)
		if kind == heapProbe {
			cuts = append(cuts, w.peakAt)
		}
		cuts = append(cuts, len(w.pkts))
		sort.Ints(cuts)
		from := 0
		for _, to := range cuts {
			if to == from && to > 0 {
				continue // the peak-open point is also a swap point
			}
			st, err := gw.ReplayPcap(b.pcapRange(from, to))
			b.ops.packets += to - from
			if err != nil || st.Ingested != uint64(to-from) {
				b.ops.packetsFailed += to - from - int(st.Ingested)
				feedErr = fmt.Errorf("ReplayPcap of packets [%d,%d): %d ingested, %v", from, to, st.Ingested, err)
				break
			}
			if kind == heapProbe && to == w.peakAt {
				gw.Flush()
				res.heapBytes = liveHeap()
				res.flowsLive = gw.Stats().FlowsLive
			}
			for j, s := range w.swapAt {
				if s == to {
					swap(j)
				}
			}
			from = to
		}
	case paced, tracedPass:
		feedErr = b.feedEach(gw, kind, res, t0, swap)
	}
	b.scrape.gw.Store(nil)
	tc := time.Now()
	if err := gw.Close(); err != nil && feedErr == nil {
		feedErr = err
	}
	t1 := time.Now()
	res.cpu = cpuTime() - cpu0
	res.steal = stealShare(mach0, machineCPU())
	if tr := res.tr; tr != nil && feedErr == nil {
		tr.add("gateway.close", res.root, -1, 1, int64(tc.Sub(t0)), int64(t1.Sub(t0)))
		tr.close(res.root)
		n := min(b.rec.n.Load(), int64(len(b.rec.recs)))
		for _, r := range b.rec.recs[:n] {
			tr.add("gateway.emit", res.ingestSpan[r.pkt], r.pkt, 1, r.t, r.t)
		}
	}
	if measureCPU {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		res.mallocs = ms1.Mallocs - ms0.Mallocs
		res.pauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	}
	res.wall, res.drain = t1.Sub(t0), t1.Sub(tc)
	res.stats = gw.Stats()
	if feedErr != nil {
		return nil, feedErr
	}
	n := b.rec.n.Load()
	out := b.chk.check(b.rec.recs, n)
	b.chk.checkStats(&out, res.stats, n)
	b.ops.flows += len(w.flows)
	b.ops.flowsFailed += out.failedFlows
	for _, p := range out.problems {
		b.problem("%s pass: %s", kindName[kind], p)
	}
	if !b.selfTest && len(out.problems) == 0 {
		b.selfTest = true
		if err := b.chk.selfTest(b.rec.recs, n); err != nil {
			b.problem("%v", err)
		}
	}
	if kind == paced {
		b.windows(b.rec.recs[:min(n, int64(len(b.rec.recs)))])
	}
	return res, nil
}

// burstPeriod is the paced feeder's schedule: every packet offered in a
// period is due at its start, as from a NIC that delivers a batch per
// interrupt. A period of 1 ms keeps the wake-ups few enough that their
// cost does not set the latency.
const burstPeriod = 1e6

// latencyWindow splits a paced pass by due time. The latency quantiles
// are taken per window and reported as their median over windows, so a GC
// cycle moves a few windows, not the result.
const latencyWindow = 10e6

// onScheduleLate is how late the feeder may wake for a batch in a window
// that counts. A later wake-up means the offered load did not arrive on
// its schedule, almost always because the host ran something else on this
// machine's processors; such a window measures the host, not the gateway.
// The feeder's median lateness is tens of microseconds.
const onScheduleLate = 150e3

// minWindows is the fewest windows the latency quantiles are taken over:
// with fewer on schedule, the ones whose feeder was least late are used.
const minWindows = 20

// window is one latency window's quantiles, in µs, and the latest feeder
// wake-up in it, in ns.
type window struct {
	p50, p90 float64
	late     int64
}

// windows adds a paced pass's match latencies to the pooled histogram
// and its per-window quantiles to wins.
func (b *bench) windows(recs []rec) {
	nWin := int(b.due[len(b.due)-1]/latencyWindow) + 1
	start := make([]int, nWin+1)
	for _, r := range recs {
		start[int(b.due[r.pkt]/latencyWindow)+1]++
	}
	for i := 1; i <= nWin; i++ {
		start[i] += start[i-1]
	}
	fill := append([]int(nil), start[:nWin]...)
	for _, r := range recs {
		lat := r.t - b.due[r.pkt]
		b.latency.add(lat)
		w := int(b.due[r.pkt] / latencyWindow)
		b.winLat[fill[w]] = int32(min(lat/histBucketNs, math.MaxInt32))
		fill[w]++
	}
	for i := 0; i < nWin; i++ {
		win := b.winLat[start[i]:start[i+1]]
		if len(win) < 100 {
			continue // too few matches in a window to have a p90
		}
		slices.Sort(win)
		at := func(q float64) float64 { return float64(win[int(q*float64(len(win)-1))]) * histBucketNs / 1e3 }
		b.wins = append(b.wins, window{at(0.5), at(0.9), b.winLate[i]})
	}
}

// latencyQuantiles returns the median over windows of the windows' p50
// and p90, over the windows whose feeder kept to its schedule, or over
// the minWindows least late when fewer did; and how many it used.
func (b *bench) latencyQuantiles() (p50, p90 float64, used int) {
	wins := slices.Clone(b.wins)
	slices.SortStableFunc(wins, func(x, y window) int { return cmp.Compare(x.late, y.late) })
	n := 0
	for n < len(wins) && wins[n].late <= onScheduleLate {
		n++
	}
	n = min(max(n, minWindows), len(wins))
	var q50, q90 []float64
	for _, w := range wins[:n] {
		q50, q90 = append(q50, w.p50), append(q90, w.p90)
	}
	return median(q50), median(q90), n
}

// cpuReading is the machine's processor time from /proc/stat: busy is
// user, system and interrupt time; steal is time the hypervisor gave to
// something else while this machine had work for the processor. ok is
// false where /proc/stat does not report them.
type cpuReading struct {
	busy, steal int64 // USER_HZ ticks, summed over processors
	ok          bool
}

// machineCPU reads the first line of /proc/stat.
func machineCPU() cpuReading {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuReading{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuReading{}
	}
	var v [8]int64
	for i := range v {
		if v[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
			return cpuReading{}
		}
	}
	// user nice system idle iowait irq softirq steal
	return cpuReading{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7], ok: true}
}

// stealShare is the share of the processor time the machine asked for
// between two readings that the host withheld, at most 0.9. Whatever ran
// meanwhile ran that much slower, so timings are corrected to t×(1−share):
// the time the program would have taken with its processors to itself.
// It is 0 where steal is not reported.
func stealShare(r0, r1 cpuReading) float64 {
	steal, busy := r1.steal-r0.steal, r1.busy-r0.busy
	if !r0.ok || !r1.ok || steal <= 0 {
		return 0
	}
	return min(float64(steal)/float64(busy+steal), 0.9)
}

var kindName = map[passKind]string{saturated: "saturated", paced: "paced", heapProbe: "heap", tracedPass: "traced"}

func (b *bench) problem(format string, a ...any) {
	if len(b.problems) < 16 {
		b.problems = append(b.problems, fmt.Sprintf(format, a...))
	}
}

// feedEach mirrors ReplayPcap's loop (Source.Next, then Ingest) one packet
// at a time: paced, it waits for each packet's due time; traced, it
// records spans around both calls.
func (b *bench) feedEach(gw *dpi.Gateway, kind passKind, res *passResult, t0 time.Time, swap func(int)) error {
	src, err := capture.NewSource(bytes.NewReader(b.w.pcap))
	if err != nil {
		return err
	}
	var pc *pacer
	if kind == paced {
		b.winLate = b.winLate[:0]
		if pc, err = newPacer(); err != nil {
			return err
		}
		defer pc.close()
	}
	var tr *tracer
	var root int32
	if kind == tracedPass {
		if b.tr == nil {
			b.tr = newTracer(2*len(b.w.pkts) + len(b.rec.recs) + len(b.w.swapAt) + 8)
		}
		tr = b.tr
		tr.reset(t0)
		root = tr.open("gateway.pass")
		res.tr, res.root = tr, root
		res.ingestSpan = make([]int32, 0, len(b.w.pkts))
	}
	sw := 0
	for i := range b.w.pkts {
		for sw < len(b.w.swapAt) && b.w.swapAt[sw] == i {
			if tr != nil {
				s := tr.now()
				swap(sw)
				tr.add("gateway.swap", root, int32(i), 1, s, tr.now())
			} else {
				swap(sw)
			}
			sw++
		}
		if kind == paced && (i == 0 || b.due[i] != b.due[i-1]) {
			// The first packet of a batch: wait for its period.
			if err := pc.wait(time.Duration(b.due[i]) - time.Since(t0)); err != nil {
				return err
			}
			late := int64(time.Since(t0)) - b.due[i]
			b.late.add(late)
			w := int(b.due[i] / latencyWindow)
			for len(b.winLate) <= w {
				b.winLate = append(b.winLate, 0)
			}
			b.winLate[w] = max(b.winLate[w], late)
		}
		var s0, s1 int64
		if tr != nil {
			s0 = tr.now()
		}
		p, err := src.Next()
		if err != nil {
			return fmt.Errorf("capture read of packet %d: %w", i, err)
		}
		if tr != nil {
			s1 = tr.now()
		}
		b.ops.packets++
		if err := gw.Ingest(gatewayPacket(p)); err != nil {
			b.ops.packetsFailed++
			return fmt.Errorf("Ingest of packet %d: %w", i, err)
		}
		if tr != nil {
			tr.add("capture.next", root, int32(i), 1, s0, s1)
			res.ingestSpan = append(res.ingestSpan, tr.add("gateway.ingest", root, int32(i), 1, s1, tr.now()))
		}
	}
	return nil
}

func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// scraper reads the gateway's Prometheus exposition once a second, as a
// monitoring system would, for the whole run.
type scraper struct {
	gw   atomic.Pointer[dpi.Gateway]
	mu   sync.Mutex
	durs []time.Duration
	once sync.Once
	stop chan struct{}
	done chan struct{}
}

func startScraper() *scraper {
	s := &scraper{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				if gw := s.gw.Load(); gw != nil {
					t := time.Now()
					_, _ = gw.Metrics().WriteTo(io.Discard) // io.Discard cannot fail
					s.mu.Lock()
					s.durs = append(s.durs, time.Since(t))
					s.mu.Unlock()
				}
			}
		}
	}()
	return s
}

// close stops the scraper, waits for it, and returns the scrape times.
func (s *scraper) close() []time.Duration {
	s.once.Do(func() { close(s.stop) })
	<-s.done
	return s.durs
}

// hist is a latency histogram with 100 ns buckets; the last bucket holds
// everything from 100 ms up.
type hist struct {
	b []uint32
	n uint64
}

const histBucketNs, histBuckets = 100, 1_000_000

func newHist() *hist { return &hist{b: make([]uint32, histBuckets)} }

func (h *hist) add(ns int64) {
	h.n++
	i := ns / histBucketNs
	if i < 0 {
		i = 0
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.b[i]++
}

// quantileUs returns the q-quantile in µs, at its bucket's midpoint.
func (h *hist) quantileUs(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n-1))
	var seen uint64
	for i, c := range h.b {
		seen += uint64(c)
		if seen > rank {
			return (float64(i) + 0.5) * histBucketNs / 1e3
		}
	}
	return float64(histBuckets) * histBucketNs / 1e3
}

func (h *hist) maxUs() float64 {
	for i := len(h.b) - 1; i >= 0; i-- {
		if h.b[i] > 0 {
			return (float64(i) + 0.5) * histBucketNs / 1e3
		}
	}
	return 0
}

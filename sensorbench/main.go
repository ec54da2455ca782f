// Command sensorbench is the repository's benchmark: it drives the public
// dpi API (Compile, NewGateway, ReplayPcap/Ingest, SwapRules, Metrics,
// Close) with one of three generated workloads, checks every emitted match
// against oracles computed apart from the program, and prints its metrics
// as one JSON object on the last line of standard output.
//
//	sensorbench --workload bulk|small|reload --seed N --seconds S --trace 0|1 [--out DIR]
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics, prints the reconciled per-layer table and writes the
// run's spans to DIR/traces/<workload>.csv.gz. The exit code is 0 only
// when every correctness check held; see README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	dpi "repro"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(int64) (*workload, error){
	"bulk":   buildBulk,
	"small":  buildSmall,
	"reload": buildReload,
}

func main() {
	name := flag.String("workload", "", "bulk, small or reload")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for trace files")
	flag.Parse()
	build, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: sensorbench --workload bulk|small|reload --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	os.Exit(run(build, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out))
}

func run(build func(int64) (*workload, error), seed int64, budget time.Duration, traced bool, out string) int {
	w, err := build(seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sensorbench: inputs:", err)
		return 1
	}
	fmt.Printf("workload %s seed %d: %d packets (%d TCP, %d UDP), %d flows, %.1f MB payload, %d oracle matches, %d late flows, %d generations, GOMAXPROCS %d\n",
		w.name, seed, len(w.pkts), w.tcpPkts, w.udpPkts, len(w.flows), float64(w.payload)/1e6, w.wantTotal, w.lateFlows, len(w.genRules), runtime.GOMAXPROCS(0))
	fmt.Printf("reorder: max displacement %d (bound %d), max gap stall %d stream packets (GapTimeout %d)\n",
		w.maxDisp, reorderBound, w.maxStall, gapTimeout)
	b := newBench(w)
	baseHeap := liveHeap()
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// Set-up is repeated through the run, so that its median does not
	// hang on one moment of the machine's load.
	var setups []float64
	reps := 8
	if traced {
		reps = 1
		build, bake, err := compileCosts(w.rulesets[0])
		if err != nil {
			fmt.Fprintln(os.Stderr, "sensorbench: compile:", err)
			return 1
		}
		put("core.build_ms", build, "ms")
		put("core.bake_ms", bake, "ms")
	}
	var lastSetup time.Time
	setup := func() error {
		if len(setups) >= reps || time.Since(lastSetup) < budget/time.Duration(reps) {
			return nil
		}
		runtime.GC()
		c0 := machineCPU()
		d, err := b.setup()
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds()*(1-stealShare(c0, machineCPU())))
		lastSetup = time.Now()
		return nil
	}
	if err := setup(); err != nil {
		fmt.Fprintln(os.Stderr, "sensorbench:", err)
		return 1
	}
	b.scrape = startScraper()
	defer b.scrape.close()

	// Pass kinds take turns, each kept near its share of the run, so a
	// stretch of load from outside the process falls on every metric a
	// little rather than on one metric whole.
	kinds := []passKind{saturated, paced}
	share := []float64{0.5, 0.5}
	if traced {
		kinds = append(kinds, tracedPass)
		share = []float64{0.35, 0.35, 0.1}
	}
	loop := budget
	if traced {
		loop = budget * 8 / 10 // the layer replays take the rest
	}
	spent := make([]time.Duration, len(kinds))
	passes := make([][]*passResult, len(kinds))
	for start := time.Now(); ; {
		next := -1
		for i := range kinds {
			if len(passes[i]) == 0 {
				next = i
				break
			}
			if next < 0 || float64(spent[i])/share[i] < float64(spent[next])/share[next] {
				next = i
			}
		}
		if len(passes[next]) > 0 && time.Since(start) >= loop {
			break
		}
		if err := setup(); err != nil {
			fmt.Fprintln(os.Stderr, "sensorbench:", err)
			return 1
		}
		t := time.Now()
		r, err := b.pass(kinds[next], traced)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sensorbench: %s pass: %v\n", kindName[kinds[next]], err)
			return 1
		}
		spent[next] += time.Since(t)
		passes[next] = append(passes[next], r)
	}
	sat := passes[0]
	var trPass []*passResult
	if traced {
		trPass = passes[2]
	}
	hp, err := b.pass(heapProbe, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sensorbench: heap pass:", err)
		return 1
	}

	// The timings of a saturated pass are corrected for the share of
	// processor time the host took during it (see stealShare).
	gbps := func(r *passResult) float64 {
		return float64(w.payload*8) / (float64(r.wall.Nanoseconds()) * (1 - r.steal))
	}
	var rates, swaps, drains, steal []float64
	genLive := hp.genLive
	for _, r := range sat {
		rates = append(rates, gbps(r))
		drains = append(drains, float64(r.drain.Nanoseconds())/1e6*(1-r.steal))
		for _, s := range r.swaps {
			swaps = append(swaps, float64(s.Nanoseconds())/1e6*(1-r.steal))
		}
		steal = append(steal, r.steal)
		genLive = max(genLive, r.genLive)
	}
	inspect := median(rates)
	fmt.Printf("saturated passes: %d, host withheld %.1f%% of the processor time asked for (median over passes)\n", len(sat), 100*median(steal))

	p50, p90, used := b.latencyQuantiles()
	fmt.Printf("latency windows: %d, %d used (feeder on schedule)\n", len(b.wins), used)
	if !traced {
		put("setup_s", median(setups), "s")
		put("inspect_gbps", inspect, "Gbit/s")
		put("latency_p50_us", p50, "us")
		put("latency_p90_us", p90, "us")
		put("heap_mb", float64(int64(hp.heapBytes)-int64(baseHeap))/1e6, "MB")
		put("swap_ms", interquartileMean(swaps), "ms")
	} else {
		lc, err := b.layers(b.tr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sensorbench: layers:", err)
			return 1
		}
		var cpu, wall time.Duration
		var mallocs, pause uint64
		var batchPkts, batches uint64
		for _, r := range sat {
			cpu += r.cpu
			wall += r.wall
			mallocs += r.mallocs
			pause += r.pauseNs
			batchPkts += r.stats.BatchPackets
			batches += r.stats.Batches
		}
		pkts := float64(len(sat) * len(w.pkts))
		cpuNs := float64(cpu.Nanoseconds()) / pkts
		var trRates []float64
		for _, r := range trPass {
			trRates = append(trRates, gbps(r))
		}
		overhead := 1 - median(trRates)/inspect
		totals := b.tr.totals()
		residual := b.reconcile(os.Stdout, lc, cpuNs, overhead)
		st := sat[len(sat)-1].stats

		put("capture.frame_ns", lc.frameNs, "ns/frame")
		put("nids.hash_ns", lc.hashNs, "ns/pkt")
		put("flowtable.lookup_ns", lc.lookupNs, "ns/pkt")
		put("flowtable.flows_peak", float64(hp.flowsLive), "count")
		put("reassembly.segment_ns", lc.segmentNs, "ns/seg")
		put("reassembly.ooo_segments", float64(st.OutOfOrderSegs), "count")
		put("reassembly.duplicate_bytes", float64(st.DuplicateBytes), "B")
		put("reassembly.gap_skips", float64(st.GapSkips), "count")
		put("reassembly.gap_skipped_bytes", float64(st.GapSkippedBytes), "B")
		put("core.scan_gbps", lc.scanGbps[lc.defaultBackend], "Gbit/s")
		for name, v := range lc.scanGbps {
			put("core.scan_gbps."+name, v, "Gbit/s")
		}
		put("core.suspect_rate", lc.suspectRate, "ratio")
		put("core.suspect_base_bytes", float64(lc.suspectBase), "B")
		var table int
		for _, mt := range b.matchers {
			ks := mt.Kernel()
			table += ks.TotalBytes + ks.PrefilterBytes + ks.AccelPairBytes
		}
		put("core.table_kb", float64(table)/1024, "KB")
		put("engine.flow_write_ns", lc.flowWriteNs, "ns/chunk")
		put("engine.burst_ns", lc.burstNs, "ns/pkt")
		ing := totals["gateway.ingest"]
		put("gateway.ingest_ns", float64(ing.self)/float64(ing.ops), "ns/pkt")
		put("gateway.cpu_ns_per_pkt", cpuNs, "ns/pkt")
		put("gateway.cpu_busy", float64(cpu)/(float64(wall)*float64(runtime.GOMAXPROCS(0))), "ratio")
		put("gateway.residual_ns_per_pkt", residual, "ns/pkt")
		put("gateway.inspect_gbps", inspect, "Gbit/s")
		put("gateway.saturated_passes", float64(len(sat)), "count")
		put("gateway.steal_share", median(steal), "ratio")
		put("gateway.pipeline_efficiency", inspect/lc.scanGbps[lc.defaultBackend], "ratio")
		put("gateway.allocs_per_pkt", float64(mallocs)/pkts, "count")
		put("gateway.gc_pause_ms", float64(pause)/1e6/float64(len(sat)), "ms")
		put("gateway.avg_burst_pkts", float64(batchPkts)/float64(max(batches, 1)), "pkts")
		put("gateway.drain_ms", median(drains), "ms")
		put("gateway.latency_p99_us", b.latency.quantileUs(0.99), "us")
		put("gateway.latency_p999_us", b.latency.quantileUs(0.999), "us")
		put("gateway.latency_samples", float64(b.latency.n), "count")
		put("gateway.latency_windows", float64(len(b.wins)), "count")
		put("gateway.latency_windows_used", float64(used), "count")
		put("gateway.generator_late_p50_us", b.late.quantileUs(0.5), "us")
		put("gateway.generator_late_max_us", b.late.maxUs(), "us")
		put("gateway.swap_p90_ms", quantile(swaps, 0.9), "ms")
		put("gateway.swap_samples", float64(len(swaps)), "count")
		put("gateway.generations_live_max", float64(genLive), "count")
		put("gateway.trace_overhead", overhead, "ratio")
		path := filepath.Join(out, "traces", w.name+".csv.gz")
		if err := b.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "sensorbench: trace:", err)
			return 1
		}
		fmt.Printf("spans: %d written to %s\n", len(b.tr.spans), path)
	}
	scrapes := b.scrape.close()
	if traced {
		var us []float64
		for _, d := range scrapes {
			us = append(us, float64(d.Nanoseconds())/1e3)
		}
		put("metrics.scrape_us", median(us), "us")
	}

	o := b.ops
	fmt.Printf("operations: packets %d attempted %d failed; swaps %d attempted %d failed; flows %d inspected %d failed\n",
		o.packets, o.packetsFailed, o.swaps, o.swapsFailed, o.flows, o.flowsFailed)
	if w.lateFlows > 0 {
		fmt.Printf("known fault: %d late flows per pass lose the matches of a segment the gateway-wide gap clock skips\n", w.lateFlows)
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-34s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "sensorbench: FAIL:", p)
	}
	res := result{Correct: len(b.problems) == 0 && b.selfTest, Attempted: o.attempted(), Failed: o.failed(), Metrics: m}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sensorbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// compileCosts times Compile with the reference backend (trie, defaults,
// compression) and with the default backend, three times each; the bake
// cost is the difference of the medians.
func compileCosts(rs *dpi.Ruleset) (buildMs, bakeMs float64, err error) {
	var ref, auto []float64
	for i := 0; i < 3; i++ {
		for _, backend := range []string{dpi.BackendReference, dpi.BackendAuto} {
			runtime.GC()
			t := time.Now()
			if _, err := dpi.Compile(rs, dpi.Config{Backend: backend}); err != nil {
				return 0, 0, err
			}
			ms := float64(time.Since(t).Nanoseconds()) / 1e6
			if backend == dpi.BackendReference {
				ref = append(ref, ms)
			} else {
				auto = append(auto, ms)
			}
		}
	}
	return median(ref), median(auto) - median(ref), nil
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// interquartileMean is the mean of the middle half of v. Unlike the
// median it moves smoothly when samples cluster in separate modes, as
// swap stalls do around the runtime's timer granularity.
func interquartileMean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	mid := s[len(s)/4 : len(s)-len(s)/4]
	var sum float64
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

// quantile interpolates linearly between order statistics.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

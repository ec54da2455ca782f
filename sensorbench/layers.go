package main

// The traced run's layer side. Spans are kept in memory and written out
// when the run ends. Each layer's public function is replayed on the
// workload's own inputs from here, outside the gateway, in batches with
// one span each, and the per-operation costs are reconciled with the
// gateway's measured CPU cost per packet.

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"

	dpi "repro"
	"repro/internal/ac"
	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/flowtable"
	"repro/internal/nids"
	"repro/internal/reassembly"
)

// span is one timed call (or batch of calls) into a layer. Spans of one
// packet carry its ingest sequence number in pkt (-1 otherwise); an emit
// span's parent is its packet's Ingest span.
type span struct {
	name       uint16
	parent     int32
	pkt        int32
	ops        int32
	start, end int64 // ns since the tracer's base
}

type tracer struct {
	base  time.Time
	names []string
	ids   map[string]uint16
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{ids: map[string]uint16{}, spans: make([]span, 0, capacity)}
}

// reset drops every span and restarts the clock at base.
func (t *tracer) reset(base time.Time) {
	t.base = base
	t.spans = t.spans[:0]
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) add(name string, parent, pkt int32, ops int, start, end int64) int32 {
	id, ok := t.ids[name]
	if !ok {
		id = uint16(len(t.names))
		t.ids[name] = id
		t.names = append(t.names, name)
	}
	t.spans = append(t.spans, span{name: id, parent: parent, pkt: pkt, ops: int32(ops), start: start, end: end})
	return int32(len(t.spans) - 1)
}

// open starts a root span; close ends it.
func (t *tracer) open(name string) int32 {
	return t.add(name, -1, -1, 0, t.now(), -1)
}

func (t *tracer) close(i int32) { t.spans[i].end = t.now() }

// layerTotal sums one span name's operations and self time (each span's
// duration minus the time its children cover).
type layerTotal struct {
	ops, self int64
}

func (t *tracer) totals() map[string]*layerTotal {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]*layerTotal{}
	for i, s := range t.spans {
		lt := out[t.names[s.name]]
		if lt == nil {
			lt = &layerTotal{}
			out[t.names[s.name]] = lt
		}
		lt.ops += int64(s.ops)
		lt.self += s.end - s.start - child[i]
	}
	return out
}

// write saves every span as gzip-compressed CSV.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "id,name,parent,packet,ops,start_ns,end_ns")
	var line []byte
	for i, s := range t.spans {
		line = strconv.AppendInt(line[:0], int64(i), 10)
		line = append(line, ',')
		line = append(line, t.names[s.name]...)
		for _, v := range []int64{int64(s.parent), int64(s.pkt), int64(s.ops), s.start, s.end} {
			line = append(line, ',')
			line = strconv.AppendInt(line, v, 10)
		}
		line = append(line, '\n')
		bw.Write(line)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// batches times run over [0, n) in batches of size, one span per batch
// under one root span, and returns the mean ns per operation.
func (t *tracer) batches(name string, n, size int, run func(from, to int)) float64 {
	root := t.open(name + ".run")
	var busy int64
	for from := 0; from < n; from += size {
		to := min(from+size, n)
		s := t.now()
		run(from, to)
		e := t.now()
		t.add(name, root, -1, to-from, s, e)
		busy += e - s
	}
	t.close(root)
	if n == 0 {
		return 0
	}
	return float64(busy) / float64(n)
}

// layerCosts are the per-operation costs of each layer on this workload.
type layerCosts struct {
	frameNs, hashNs, lookupNs, segmentNs, flowWriteNs, burstNs float64
	scanGbps                                                   map[string]float64
	defaultBackend                                             string
	suspectRate                                                float64
	suspectBase                                                uint64
}

var sink int

// layers replays each layer's public function on the workload's inputs.
func (b *bench) layers(tr *tracer) (layerCosts, error) {
	w := b.w
	var lc layerCosts

	src, err := capture.NewSource(b.pcapRange(0, len(w.pkts)))
	if err != nil {
		return lc, err
	}
	var readErr error
	lc.frameNs = tr.batches("capture.frame", len(w.pkts), 256, func(from, to int) {
		for i := from; i < to; i++ {
			p, err := src.Next()
			if err != nil && readErr == nil {
				readErr = err
			}
			sink += len(p.Payload)
		}
	})
	if readErr != nil {
		return lc, readErr
	}

	var tcp []packet
	for _, p := range w.pkts {
		if p.seg >= 0 {
			tcp = append(tcp, p)
		}
	}
	tuples := make([]nids.FiveTuple, len(w.pkts))
	for i, p := range w.pkts {
		tuples[i] = tupleFor(int(p.flow), p.seg < 0)
	}
	var h uint64
	lc.hashNs = tr.batches("nids.hash", len(tuples), 256, func(from, to int) {
		for i := from; i < to; i++ {
			h ^= tuples[i].Hash64()
		}
	})
	sink += int(h & 1)

	type flowState struct{ n int }
	table := flowtable.New(flowtable.Config[*flowState]{
		New:      func(flowtable.Key) *flowState { return &flowState{} },
		Evict:    func(flowtable.Key, *flowState) {},
		MaxFlows: 1 << 16, // the gateway's defaults
		Shards:   64,
	})
	tcpTuples := make([]nids.FiveTuple, len(tcp))
	tcpHashes := make([]uint64, len(tcp))
	for i, p := range tcp {
		tcpTuples[i] = w.flows[p.flow].tuple
		tcpHashes[i] = tcpTuples[i].Hash64()
	}
	touch := func(f *flowState) { f.n++ }
	lc.lookupNs = tr.batches("flowtable.lookup", len(tcp), 256, func(from, to int) {
		for i := from; i < to; i++ {
			table.DoHashed(tcpTuples[i], tcpHashes[i], touch)
		}
	})
	table.Close()

	streams := make([]*reassembly.Stream, w.nTCP)
	budget := reassembly.NewBudget(16 << 20)
	var delivered int
	deliver := func(chunk []byte, _ int) { delivered += len(chunk) }
	lc.segmentNs = tr.batches("reassembly.segment", len(tcp), 256, func(from, to int) {
		for i := from; i < to; i++ {
			p := tcp[i]
			s := streams[p.flow]
			if s == nil {
				s = reassembly.NewStream(reassembly.Config{Budget: budget, GapTimeout: gapTimeout})
				streams[p.flow] = s
			}
			var fl reassembly.Flags
			if p.flags&capture.FlagSYN != 0 {
				fl |= reassembly.SYN
			}
			if p.flags&capture.FlagFIN != 0 {
				fl |= reassembly.FIN
			}
			s.Segment(p.seq, p.payload, fl, uint64(i), deliver)
		}
	})
	sink += delivered

	engines := make([]*dpi.Engine, len(b.matchers))
	for g, m := range b.matchers {
		engines[g] = m.NewEngine(1)
	}
	type chunk struct {
		flow, seg int
	}
	var chunks []chunk
	for i := 0; i < w.nTCP; i++ {
		for s := 0; s < len(w.flows[i].cuts)-1; s++ {
			chunks = append(chunks, chunk{i, s})
		}
	}
	var matches int
	count := func(dpi.Match) { matches++ }
	var flow *dpi.Flow
	lc.flowWriteNs = tr.batches("engine.flow_write", len(chunks), 256, func(from, to int) {
		for i := from; i < to; i++ {
			c := chunks[i]
			f := &w.flows[c.flow]
			if c.seg == 0 {
				flow = engines[f.gen].Flow(count)
			}
			// Writing to and closing a Flow opened above cannot fail.
			_, _ = flow.WritePacket(f.stream[f.cuts[c.seg]:f.cuts[c.seg+1]], i)
			if c.seg == len(f.cuts)-2 {
				_ = flow.Close()
			}
		}
	})

	datagrams := make([][]byte, 0, w.udpPkts)
	for _, f := range w.flows[w.nTCP:] {
		datagrams = append(datagrams, f.stream)
	}
	// Bursts use generation 0's engine; on reload every generation's
	// ruleset has the same size, so the cost is the same.
	lc.burstNs = tr.batches("engine.burst", len(datagrams), 64, func(from, to int) {
		matches += len(engines[0].ScanPackets(datagrams[from:to]))
	})
	sink += matches

	machines := make([]*core.Machine, len(w.rulesets))
	for i, rs := range w.rulesets {
		m, err := core.Build(rs.InternalSet(), core.Options{})
		if err != nil {
			return lc, err
		}
		machines[i] = m
	}
	lc.defaultBackend = machines[0].DefaultBackend()
	lc.scanGbps = map[string]float64{}
	var bytesAll int64
	for _, f := range w.flows {
		bytesAll += int64(len(f.stream))
	}
	var out []ac.Match
	for _, name := range core.RegisteredBackends() {
		scanners := make([]*core.Scanner, len(machines))
		for i, m := range machines {
			sc, err := m.NewScannerFor(name)
			if err != nil {
				return lc, err
			}
			scanners[i] = sc
		}
		perFlow := tr.batches("core.scan."+name, len(w.flows), 64, func(from, to int) {
			for i := from; i < to; i++ {
				f := &w.flows[i]
				sc := scanners[w.genRules[f.gen]]
				sc.Reset()
				out = sc.ScanAppend(f.stream, out[:0])
				sink += len(out)
			}
		})
		lc.scanGbps[name] = float64(bytesAll*8) / (perFlow * float64(len(w.flows)))
		if name == core.BackendPrefiltered {
			var skimmed, suspect uint64
			for _, m := range machines {
				st := m.Prefilter().Stats()
				skimmed += st.SkimmedBytes
				suspect += st.SuspectWindows
			}
			lc.suspectBase = skimmed
			if skimmed > 0 {
				lc.suspectRate = float64(suspect) / float64(skimmed)
			}
		}
	}
	return lc, nil
}

// reconcile prints the per-layer cost of an average packet next to the
// measured end-to-end CPU cost per packet, and returns the residual.
func (b *bench) reconcile(wr io.Writer, lc layerCosts, cpuNsPerPkt, overhead float64) float64 {
	w := b.w
	pkts := float64(len(w.pkts))
	rows := []struct {
		name      string
		ns, perPk float64
	}{
		{"capture.frame", lc.frameNs, 1},
		{"nids.hash (TCP)", lc.hashNs, float64(w.tcpPkts) / pkts},
		{"flowtable.lookup (TCP)", lc.lookupNs, float64(w.tcpPkts) / pkts},
		{"reassembly.segment (TCP)", lc.segmentNs, float64(w.tcpPkts) / pkts},
		{"engine.flow_write, scan included", lc.flowWriteNs, float64(w.chunks) / pkts},
		{"engine.burst, scan included (UDP)", lc.burstNs, float64(w.udpPkts) / pkts},
	}
	fmt.Fprintf(wr, "%-36s %10s %9s %10s %7s\n", "layer", "ns/op", "ops/pkt", "ns/pkt", "share")
	var sum float64
	for _, r := range rows {
		v := r.ns * r.perPk
		sum += v
		fmt.Fprintf(wr, "%-36s %10.1f %9.3f %10.1f %6.1f%%\n", r.name, r.ns, r.perPk, v, 100*v/cpuNsPerPkt)
	}
	scan := float64(w.payload*8) / pkts / lc.scanGbps[lc.defaultBackend]
	fmt.Fprintf(wr, "%-36s %10s %9s %10.1f %6.1f%%\n", "  of which core.scan ("+lc.defaultBackend+")", "", "", scan, 100*scan/cpuNsPerPkt)
	fmt.Fprintf(wr, "%-36s %10s %9s %10.1f %6.1f%%\n", "attributed to layers", "", "", sum, 100*sum/cpuNsPerPkt)
	residual := cpuNsPerPkt - sum
	fmt.Fprintf(wr, "%-36s %10s %9s %10.1f %6.1f%%\n", "residual (collector, hops, clock, emit)", "", "", residual, 100*residual/cpuNsPerPkt)
	fmt.Fprintf(wr, "%-36s %10s %9s %10.1f\n", "end-to-end CPU ns/pkt (untraced)", "", "", cpuNsPerPkt)
	fmt.Fprintf(wr, "tracing overhead on inspect_gbps: %.1f%%\n", 100*overhead)
	return residual
}

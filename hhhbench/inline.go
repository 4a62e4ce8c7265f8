package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	hhh "hiddenhhh"
	"hiddenhhh/internal/trace"
)

// queryEvery is inline-hidden's query cadence in trace time.
const queryEvery = time.Second

// inline is inline-hidden: a binary trace file stream-decoded into the
// root package's single-goroutine windowed (exact) and sliding
// (Memento) detectors, both queried every trace second, with the HHHs
// the windowed view hides computed live.
type inline struct {
	l    laps
	path string
	win  hhh.Detector
	sl   hhh.Detector
}

func setupInline(seed int64, dir string) (instance, error) {
	l, err := newLaps(hitAndRun(seed))
	if err != nil {
		return nil, err
	}
	in := &inline{l: l, path: filepath.Join(dir, fmt.Sprintf("inline-hidden-%d.trace", seed))}
	if err := hhh.WriteTraceFile(in.path, l.base); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	in.win, err = hhh.NewWindowedDetector(hhh.WindowedConfig{Window: window, Phi: phi, Engine: hhh.EngineExact})
	if err != nil {
		return nil, err
	}
	in.sl, err = hhh.NewSlidingDetector(hhh.SlidingConfig{
		Window: window, Phi: phi, Engine: hhh.EngineMemento, Frames: frames,
		Counters: counters, Seed: engineSeed,
	})
	if err != nil {
		return nil, err
	}
	return in, nil
}

func (in *inline) close() { os.Remove(in.path) }

func (in *inline) run(budget time.Duration, tr *tracer) (*outcome, error) {
	out := newOutcome(in.l)
	sg := &gate{name: "inline sliding Memento", model: sliding, bounds: mementoBounds}
	wg := &gate{name: "inline windowed exact", model: windowed, bounds: exactBounds}
	out.gates = []*gate{sg, wg}
	out.hidden = sg
	firstEnd := (in.l.base[0].Ts/int64(window) + 1) * int64(window)
	hiddenLive := hhh.Set{}
	nextQ := int64(queryEvery)
	buf := make([]hhh.Packet, readBatch)

	ingest := func(pkts []hhh.Packet) {
		id := tr.begin("hhh.exact", noSpan, -1)
		in.win.ObserveBatch(pkts)
		tr.end(id)
		id = tr.begin("swhh.memento", noSpan, -1)
		in.sl.ObserveBatch(pkts)
		tr.end(id)
		out.packets += int64(len(pkts))
	}
	// ask queries both detectors at trace second q, after every packet
	// before q: the windowed report is the last window closed by q, the
	// sliding one covers the span ending at q-1.
	ask := func(q int64) {
		t0 := time.Now()
		id := tr.begin("hhh.query", noSpan, q)
		ws := in.win.Snapshot(q)
		tr.end(id)
		id = tr.begin("swhh.query", noSpan, q)
		ss := in.sl.Snapshot(q - 1)
		tr.end(id)
		id = tr.begin("hidden.diff", noSpan, q)
		hiddenLive.UnionInPlace(ss.Diff(ws))
		tr.end(id)
		out.reportMs = append(out.reportMs, ms(time.Since(t0)))
		sg.add(q-1, ss, in.sl.(hhh.Accounting).ReportMass(q-1), 0)
		if q >= firstEnd {
			wg.add(q/int64(window)*int64(window), ws, in.win.(hhh.Accounting).ReportMass(q), 0)
		}
	}

	start := time.Now()
	lap := int64(0)
	for ; lap == 0 || time.Since(start) < budget; lap++ {
		rd, f, err := trace.OpenFile(in.path)
		if err != nil {
			return nil, err
		}
		var pending hhh.Packet
		held := false
		for eof := false; !eof; {
			id := tr.begin("trace.decode", noSpan, -1)
			n := 0
			if held {
				buf[0], n, held = pending, 1, false
			}
			for n < len(buf) {
				if err = rd.Next(&buf[n]); err != nil {
					break
				}
				buf[n].Ts += lap * in.l.period
				if buf[n].Ts >= nextQ {
					pending, held = buf[n], true
					break
				}
				n++
			}
			tr.end(id)
			if eof = errors.Is(err, io.EOF); err != nil && !eof {
				f.Close()
				return nil, fmt.Errorf("decode trace: %w", err)
			}
			ingest(buf[:n])
			for ; held && pending.Ts >= nextQ; nextQ += int64(queryEvery) {
				ask(nextQ)
			}
		}
		f.Close()
	}
	// Query the remaining seconds of the last lap.
	for ; nextQ <= lap*in.l.period; nextQ += int64(queryEvery) {
		ask(nextQ)
	}
	out.wall = time.Since(start)
	out.attempted = out.packets + int64(len(out.reportMs))
	out.layer["hidden.live"] = float64(hiddenLive.Len())
	return out, nil
}

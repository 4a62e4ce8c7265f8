package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	hhh "hiddenhhh"
	"hiddenhhh/internal/pcap"
)

// replay is replay-windowed: a pcap file stream-decoded, lap after lap,
// into a 2-shard windowed per-level pipeline at full speed.
type replay struct {
	l    laps
	path string
	det  hhh.ShardedDetector

	mu   sync.Mutex // guards pubs: OnWindow runs on a shard goroutine
	pubs []published
}

// published is one window report as OnWindow delivered it.
type published struct {
	end int64
	set hhh.Set
	at  time.Time
}

func setupReplay(seed int64, dir string) (instance, error) {
	l, err := newLaps(hitAndRun(seed))
	if err != nil {
		return nil, err
	}
	r := &replay{l: l, path: filepath.Join(dir, fmt.Sprintf("replay-windowed-%d.pcap", seed))}
	if err := hhh.WritePcapFile(r.path, l.base); err != nil {
		return nil, fmt.Errorf("write pcap: %w", err)
	}
	r.det, err = hhh.NewShardedDetector(hhh.ShardedConfig{
		Mode: hhh.ModeWindowed, Shards: shards, Window: window, Phi: phi,
		Engine: hhh.EnginePerLevel, Counters: counters, RingDepth: ringDepth,
		OnWindow: r.onWindow,
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

func (r *replay) onWindow(_, end int64, set hhh.Set) {
	at := time.Now()
	r.mu.Lock()
	r.pubs = append(r.pubs, published{end: end, set: set, at: at})
	r.mu.Unlock()
}

func (r *replay) close() {
	r.det.Close()
	os.Remove(r.path)
}

func (r *replay) run(budget time.Duration, tr *tracer) (*outcome, error) {
	out := newOutcome(r.l)
	g := &gate{name: "2-shard windowed per-level", model: windowed, bounds: perLevelBounds}
	out.gates = []*gate{g}
	// calls maps each window end to the start of the ingest call that
	// carried its boundary packet: the report's latency starts there.
	calls := map[int64]time.Time{}
	nextEnd := (r.l.base[0].Ts/int64(window) + 1) * int64(window)
	buf := make([]hhh.Packet, readBatch)
	var fills []float64

	start := time.Now()
	lap := int64(0)
	for ; lap == 0 || time.Since(start) < budget; lap++ {
		f, err := os.Open(r.path)
		if err != nil {
			return nil, err
		}
		rd, err := pcap.NewReader(bufio.NewReaderSize(f, 1<<16))
		if err != nil {
			f.Close()
			return nil, err
		}
		for eof := false; !eof; {
			id := tr.begin("pcap.decode", noSpan, -1)
			n := 0
			for n < len(buf) {
				if err = rd.Next(&buf[n]); err != nil {
					break
				}
				buf[n].Ts += lap * r.l.period
				n++
			}
			tr.end(id)
			if eof = errors.Is(err, io.EOF); err != nil && !eof {
				f.Close()
				return nil, fmt.Errorf("decode pcap: %w", err)
			}
			if n == 0 {
				continue
			}
			rep := int64(-1)
			if last := buf[n-1].Ts; last >= nextEnd {
				t0 := time.Now()
				for ; last >= nextEnd; nextEnd += int64(window) {
					calls[nextEnd] = t0
					rep = nextEnd
				}
			}
			id = tr.begin("pipeline.observe", noSpan, rep)
			err = r.det.TryObserveBatch(buf[:n])
			tr.end(id)
			out.packets += int64(n)
			if err != nil {
				out.failed += int64(n)
			}
			if tr != nil {
				fills = append(fills, sampleQueue(r.det.Stats()))
			}
		}
		f.Close()
	}
	// Publish the last window: the run ends on a lap boundary, so every
	// window holds whole-lap traffic.
	end := lap * r.l.period
	for t0 := time.Now(); nextEnd <= end; nextEnd += int64(window) {
		calls[nextEnd] = t0
	}
	id := tr.begin("pipeline.snapshot", noSpan, end)
	r.det.Snapshot(end)
	tr.end(id)
	out.wall = time.Since(start)

	r.mu.Lock()
	pubs := r.pubs
	r.pubs = nil
	r.mu.Unlock()
	for _, p := range pubs {
		t0, ok := calls[p.end]
		if !ok {
			return nil, fmt.Errorf("window ending %v published without its boundary packet", time.Duration(p.end))
		}
		out.reportMs = append(out.reportMs, ms(p.at.Sub(t0)))
		g.add(p.end, p.set, -1, 0)
	}
	out.attempted = out.packets + int64(len(calls))
	out.failed += int64(len(calls) - len(pubs))
	if len(fills) > 0 {
		out.layer["pipeline.queue_fill"] = mean(fills)
	}
	pipelineLayer(out, r.det)
	return out, nil
}

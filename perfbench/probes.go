package main

import (
	"bytes"
	"time"

	"repro/internal/netx/mux"
	"repro/internal/pattern"
)

// matched keeps the probed calls' results live.
var matched int

// probeTime is how long each layer probe repeats its inputs.
const probeTime = 200 * time.Millisecond

// globNsPerKB times pattern.Match of every pattern on every buffer, in ns
// per KiB of buffer scanned.
func globNsPerKB(pats, bufs []string) float64 {
	var per int
	for _, b := range bufs {
		per += len(b) * len(pats)
	}
	if per == 0 {
		return 0
	}
	var scanned int
	t0 := time.Now()
	for time.Since(t0) < probeTime {
		for _, b := range bufs {
			for _, p := range pats {
				if pattern.Match(p, b) {
					matched++
				}
			}
		}
		scanned += per
	}
	return float64(time.Since(t0)) / (float64(scanned) / 1024)
}

// muxNsPerFrame times mux.AppendFrame and Decoder.Next over frames of the
// given payload sizes, in ns per frame.
func muxNsPerFrame(sizes []int) (encode, decode float64) {
	if len(sizes) == 0 {
		return 0, 0
	}
	frames := make([]mux.Frame, len(sizes))
	for i, n := range sizes {
		frames[i] = mux.Frame{Type: mux.TypeData, Stream: uint32(i + 1), Payload: bytes.Repeat([]byte{'x'}, n)}
	}
	var wire []byte
	count := 0
	t0 := time.Now()
	for time.Since(t0) < probeTime {
		wire = wire[:0]
		for _, f := range frames {
			wire = mux.AppendFrame(wire, f)
		}
		count += len(frames)
	}
	encode = float64(time.Since(t0)) / float64(count)

	count = 0
	r := bytes.NewReader(wire)
	t0 = time.Now()
	for time.Since(t0) < probeTime {
		r.Reset(wire)
		d := mux.NewDecoder(r)
		for range frames {
			if _, err := d.Next(); err != nil {
				return encode, 0
			}
		}
		count += len(frames)
	}
	decode = float64(time.Since(t0)) / float64(count)
	return encode, decode
}

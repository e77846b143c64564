package main

import (
	"math/bits"
	"sort"
)

// hist is a fixed log-bucket histogram of nanosecond latencies: 128
// buckets per power of two, so a reported quantile is within 1/128
// (< 1 %) of the recorded value. sim_walk records several million
// samples per run, which is why latencies are bucketed and not kept.
// One goroutine writes a hist; merge combines them afterwards.
type hist struct {
	n      uint64
	counts [histSize]uint64
}

const (
	histSub  = 128
	histMax  = 1 << 40 // ~18 min in ns; larger values clamp here
	histSize = (40-8)*histSub + 2*histSub
)

func histIndex(v uint64) int {
	if v >= histMax {
		v = histMax - 1
	}
	if v < 2*histSub {
		return int(v)
	}
	shift := uint(bits.Len64(v)) - 8
	return int(shift)*histSub + int(v>>shift)
}

// histBounds returns the lowest value of bucket i and the bucket's width.
func histBounds(i int) (low, width float64) {
	if i < 2*histSub {
		return float64(i), 1
	}
	shift := uint(i/histSub) - 1
	return float64(uint64(i-int(shift)*histSub) << shift), float64(uint64(1) << shift)
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histIndex(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	for i, c := range o.counts {
		h.counts[i] += c
	}
}

// quantile returns the q-quantile in nanoseconds (0 with no samples),
// placed inside its bucket by how far through the bucket's samples the
// quantile's rank falls.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c > 0 && seen+float64(c) > rank {
			low, width := histBounds(i)
			return low + width*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	low, width := histBounds(histSize - 1)
	return low + width
}

// beyond returns how many samples lie above the q-quantile's bucket,
// so a reader can see that a reported tail has samples behind it.
func (h *hist) beyond(q float64) uint64 {
	if h.n == 0 {
		return 0
	}
	return h.n - uint64(q*float64(h.n)) - 1
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// bestHalf is the mean of the better half of v (at least one value):
// the highest if higher is better, else the lowest. What a shared host
// does to a segment only ever makes it slower, so a run's better
// segments are the ones that measured the program; a change to the
// program moves them with all the others.
func bestHalf(v []float64, higher bool) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := max(len(s)/2, 1)
	if higher {
		s = s[len(s)-n:]
	} else {
		s = s[:n]
	}
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(n)
}

// quartiles returns the first and third quartile of v the way Python's
// statistics.quantiles(v, n=4) does (the exclusive method), because
// that is how the spread of this benchmark's metrics is judged.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return at(1), at(3)
}

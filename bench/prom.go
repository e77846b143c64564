package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"amoeba/internal/obs"
)

// promSnap is one scrape of the program's exported counters, keyed by
// series ("name{labels}"). The in-process cluster and the amoebad
// daemons export the same Prometheus text, so one parser reads both
// and the per-layer metrics are computed the same way on SimNet and
// on TCP.
type promSnap map[string]float64

func parseProm(r io.Reader) (promSnap, error) {
	snap := promSnap{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		snap[line[:i]] += v
	}
	return snap, sc.Err()
}

func scrapeRegistry(reg *obs.Registry) (promSnap, error) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return parseProm(&buf)
}

var scrapeClient = &http.Client{Timeout: 5 * time.Second}

// scrapeURLs sums the /metrics of several daemons into one snapshot.
func scrapeURLs(urls []string) (promSnap, error) {
	total := promSnap{}
	for _, u := range urls {
		resp, err := scrapeClient.Get(u)
		if err != nil {
			return nil, err
		}
		snap, err := parseProm(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", u, err)
		}
		for k, v := range snap {
			total[k] += v
		}
	}
	return total, nil
}

// sub returns s - before, series by series.
func (s promSnap) sub(before promSnap) promSnap {
	d := make(promSnap, len(s))
	for k, v := range s {
		d[k] = v - before[k]
	}
	return d
}

// sum adds every series of the family name whose label text contains
// all of match (e.g. `status="ok"`).
func (s promSnap) sum(name string, match ...string) float64 {
	var total float64
series:
	for k, v := range s {
		if k != name && !strings.HasPrefix(k, name+"{") {
			continue
		}
		for _, m := range match {
			if !strings.Contains(k, m) {
				continue series
			}
		}
		total += v
	}
	return total
}

// histQuantile returns the q-quantile of the histogram family name,
// summed over every label set, from its cumulative le buckets. The
// program's buckets are powers of two; the value is interpolated
// geometrically inside the bucket the quantile falls in.
func (s promSnap) histQuantile(name string, q float64) float64 {
	byBound := map[float64]float64{}
	prefix := name + "_bucket{"
	for k, v := range s {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		i := strings.Index(k, `le="`)
		if i < 0 {
			continue
		}
		le := k[i+4:]
		le = le[:strings.IndexByte(le, '"')]
		bound := math.Inf(1)
		if le != "+Inf" {
			b, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			bound = b
		}
		byBound[bound] += v
	}
	bounds := make([]float64, 0, len(byBound))
	for b := range byBound {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 {
		return 0
	}
	total := byBound[bounds[len(bounds)-1]]
	if total <= 0 {
		return 0
	}
	rank := q * total
	var below, lower float64
	for _, b := range bounds {
		cum := byBound[b]
		if cum >= rank && cum > below {
			if math.IsInf(b, 1) || lower == 0 {
				return lower
			}
			return lower * math.Pow(b/lower, (rank-below)/(cum-below))
		}
		below, lower = cum, b
	}
	return lower
}

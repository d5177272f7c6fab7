package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// sample is one line of a Prometheus text exposition.
type sample struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape holds one /metrics exposition keyed by the sample's series
// text (name plus label set as written), so two scrapes of one daemon
// line up series by series.
type scrape map[string]sample

// parseExposition reads the Prometheus text format: comment lines are
// skipped, every other line is `name{label="value",...} number`.
func parseExposition(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		series, raw := line[:cut], line[cut+1:]
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		s := sample{name: series, labels: map[string]string{}, value: v}
		if i := strings.IndexByte(series, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				return nil, fmt.Errorf("metrics line %q: unterminated labels", line)
			}
			s.name = series[:i]
			if s.labels, err = parseLabels(series[i+1 : len(series)-1]); err != nil {
				return nil, fmt.Errorf("metrics line %q: %w", line, err)
			}
		}
		out[series] = s
	}
	return out, sc.Err()
}

// parseLabels parses `a="x",b="y"` with Go-style escapes in the values.
func parseLabels(s string) (map[string]string, error) {
	labels := map[string]string{}
	for s != "" {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return nil, fmt.Errorf("bad label list %q", s)
		}
		name := s[:eq]
		rest := s[eq+1:]
		end := 1
		for ; end < len(rest); end++ {
			if rest[end] == '\\' {
				end++
				continue
			}
			if rest[end] == '"' {
				break
			}
		}
		if end >= len(rest) {
			return nil, fmt.Errorf("unterminated label value in %q", s)
		}
		v, err := strconv.Unquote(rest[:end+1])
		if err != nil {
			return nil, fmt.Errorf("label %s: %w", name, err)
		}
		labels[name] = v
		s = strings.TrimPrefix(rest[end+1:], ",")
	}
	return labels, nil
}

// delta returns after minus before, series by series. A series absent
// from before counts from zero (a counter first touched in between).
func delta(before, after scrape) scrape {
	out := scrape{}
	for k, a := range after {
		a.value -= before[k].value
		out[k] = a
	}
	return out
}

// add accumulates other into s (summing counter deltas across daemons).
func (s scrape) add(other scrape) {
	for k, o := range other {
		if cur, ok := s[k]; ok {
			cur.value += o.value
			s[k] = cur
		} else {
			s[k] = o
		}
	}
}

// sum totals the series named name whose labels include every pair in
// want (alternating label name, value).
func (s scrape) sum(name string, want ...string) float64 {
	total := 0.0
	for _, smp := range s {
		if smp.name != name || !smp.has(want) {
			continue
		}
		total += smp.value
	}
	return total
}

func (smp sample) has(want []string) bool {
	for i := 0; i+1 < len(want); i += 2 {
		if smp.labels[want[i]] != want[i+1] {
			return false
		}
	}
	return true
}

// scrapeMetrics fetches and parses base/metrics.
func scrapeMetrics(ctx context.Context, hc *http.Client, base string) (scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", base, resp.Status)
	}
	return parseExposition(resp.Body)
}

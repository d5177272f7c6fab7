package main

import (
	"strings"
	"testing"
)

const exposition = `# HELP cuisined_http_requests_total Requests served.
# TYPE cuisined_http_requests_total counter
cuisined_http_requests_total{endpoint="/v1/table",code="200"} 7
cuisined_http_requests_total{endpoint="/v1/closest/{figure}",code="200"} 3
cuisined_http_request_duration_seconds_sum{endpoint="/v1/table"} 0.5
cuisined_http_request_duration_seconds_count{endpoint="/v1/table"} 7
cuisined_http_request_duration_seconds_sum{endpoint="/healthz"} 9
cuisined_http_request_duration_seconds_count{endpoint="/healthz"} 90
cuisined_stage_cache_events_total{stage="corpus",event="hit"} 4
cuisined_stage_cache_events_total{stage="mine",event="hit"} 6
cuisined_stage_cache_events_total{stage="mine",event="computed"} 1
cuisined_peer_healthy{peer="http://a \"quoted\" b"} 1
cuisined_http_not_modified_total 2
`

func TestParseExposition(t *testing.T) {
	s, err := parseExposition(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.sum("cuisined_http_requests_total"); got != 10 {
		t.Errorf("requests total = %g, want 10", got)
	}
	if got := s.sum("cuisined_http_requests_total", "endpoint", "/v1/closest/{figure}"); got != 3 {
		t.Errorf("closest requests = %g, want 3", got)
	}
	if got := s.sum("cuisined_stage_cache_events_total", "event", "hit"); got != 10 {
		t.Errorf("stage hits = %g, want 10", got)
	}
	if got := s.sum("cuisined_stage_cache_events_total", "stage", "mine", "event", "computed"); got != 1 {
		t.Errorf("mine computed = %g, want 1", got)
	}
	if got := s.sum("cuisined_peer_healthy", "peer", `http://a "quoted" b`); got != 1 {
		t.Errorf("escaped label value not decoded: %g", got)
	}
	if got := s.sum("cuisined_http_not_modified_total"); got != 2 {
		t.Errorf("unlabeled series = %g, want 2", got)
	}
}

func TestParseExpositionRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"novalue\n",
		"name{a=\"x\" 1\n",
		"name{a=x} 1\n",
		"name{a=\"x} 1\n",
		"name 1.2.3\n",
	} {
		if _, err := parseExposition(strings.NewReader(bad)); err == nil {
			t.Errorf("parsed %q without error", bad)
		}
	}
}

func TestCounterDeltas(t *testing.T) {
	before, err := parseExposition(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseExposition(strings.NewReader(strings.NewReplacer(
		`code="200"} 7`, `code="200"} 12`,
		`_sum{endpoint="/v1/table"} 0.5`, `_sum{endpoint="/v1/table"} 0.75`,
		`_count{endpoint="/v1/table"} 7`, `_count{endpoint="/v1/table"} 12`,
	).Replace(exposition) + "cuisined_admission_rejected_total 4\n"))
	if err != nil {
		t.Fatal(err)
	}
	d := delta(before, after)
	if got := d.sum("cuisined_http_requests_total", "endpoint", "/v1/table"); got != 5 {
		t.Errorf("table delta = %g, want 5", got)
	}
	if got := d.sum("cuisined_http_requests_total", "endpoint", "/v1/closest/{figure}"); got != 0 {
		t.Errorf("unchanged series delta = %g, want 0", got)
	}
	if got := d.sum("cuisined_admission_rejected_total"); got != 4 {
		t.Errorf("series new in the second scrape counts from zero: %g, want 4", got)
	}

	m := map[string]float64{}
	counterMetrics(d, m)
	if got := m["http.server_ms_mean"]; got < 49.99 || got > 50.01 {
		t.Errorf("http.server_ms_mean = %g, want 50 (only /v1/ endpoints count)", got)
	}

	total := scrape{}
	total.add(d)
	total.add(d)
	if got := total.sum("cuisined_http_requests_total", "endpoint", "/v1/table"); got != 10 {
		t.Errorf("summed deltas = %g, want 10", got)
	}
}

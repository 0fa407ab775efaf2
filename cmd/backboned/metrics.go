package main

// GET /metricsz: the daemon's operational counters in Prometheus text
// exposition format (version 0.0.4), for scrape-based monitoring next
// to the JSON /statsz. Only counters and gauges are exposed — the
// sources are the exact same atomics and Stats() snapshots /statsz
// reads, so the two endpoints can never disagree.

import (
	"bufio"
	"fmt"
	"net/http"
	"strings"
	"time"
)

// metricsContentType is the Prometheus text exposition media type.
const metricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// promWriter accumulates one exposition: TYPE headers, labels, and
// float-formatted samples.
type promWriter struct {
	w *bufio.Writer
}

func (p *promWriter) typ(name, kind, help string) {
	fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
}

// single writes a metric that has one unlabeled sample.
func (p *promWriter) single(name, kind, help string, value float64) {
	p.typ(name, kind, help)
	p.sample(name, value)
}

// sample writes one metric line. labels is alternating key, value
// pairs; values are label-escaped per the exposition format.
func (p *promWriter) sample(name string, value float64, labels ...string) {
	p.w.WriteString(name)
	if len(labels) > 0 {
		p.w.WriteByte('{')
		for i := 0; i+1 < len(labels); i += 2 {
			if i > 0 {
				p.w.WriteByte(',')
			}
			fmt.Fprintf(p.w, "%s=%q", labels[i], escapeLabel(labels[i+1]))
		}
		p.w.WriteByte('}')
	}
	fmt.Fprintf(p.w, " %g\n", value)
}

// escapeLabel handles the exposition format's label escapes; %q covers
// quote and backslash, so only newlines need rewriting.
func escapeLabel(v string) string {
	return strings.ReplaceAll(v, "\n", "\\n")
}

func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// handleMetricsz renders the scrape.
func (s *server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metricsContentType)
	p := &promWriter{w: bufio.NewWriter(w)}
	defer p.w.Flush()

	p.single("backboned_uptime_seconds", "gauge", "Seconds since the process started.", time.Since(s.start).Seconds())
	p.single("backboned_requests_total", "counter", "Requests accepted by the scoring and session endpoints.", float64(s.requests.Load()))
	p.single("backboned_draining", "gauge", "1 once graceful shutdown has begun (readyz is 503).", b2f(s.draining.Load()))

	gs, ss := s.graphs.Stats(), s.scores.Stats()
	p.typ("backboned_cache_hits_total", "counter", "Content-addressed cache hits by cache.")
	p.sample("backboned_cache_hits_total", float64(gs.Hits), "cache", "graph")
	p.sample("backboned_cache_hits_total", float64(ss.Hits), "cache", "score")
	p.typ("backboned_cache_misses_total", "counter", "Content-addressed cache misses by cache.")
	p.sample("backboned_cache_misses_total", float64(gs.Misses), "cache", "graph")
	p.sample("backboned_cache_misses_total", float64(ss.Misses), "cache", "score")
	p.typ("backboned_cache_evictions_total", "counter", "Cache entries evicted to honor the byte budget.")
	p.sample("backboned_cache_evictions_total", float64(gs.Evictions), "cache", "graph")
	p.sample("backboned_cache_evictions_total", float64(ss.Evictions), "cache", "score")
	p.typ("backboned_cache_entries", "gauge", "Current cache entries by cache.")
	p.sample("backboned_cache_entries", float64(gs.Entries), "cache", "graph")
	p.sample("backboned_cache_entries", float64(ss.Entries), "cache", "score")
	p.typ("backboned_cache_bytes", "gauge", "Summed cost of resident cache entries by cache.")
	p.sample("backboned_cache_bytes", float64(gs.Bytes), "cache", "graph")
	p.sample("backboned_cache_bytes", float64(ss.Bytes), "cache", "score")

	ast := s.limiter.Stats()
	p.single("backboned_admission_limit", "gauge", "Current adaptive concurrency limit.", ast.Limit)
	p.typ("backboned_admission_in_flight", "gauge", "Admitted requests currently executing, by lane.")
	p.sample("backboned_admission_in_flight", float64(ast.Fast.InFlight), "lane", "fast")
	p.sample("backboned_admission_in_flight", float64(ast.Cold.InFlight), "lane", "cold")
	p.typ("backboned_admission_queued", "gauge", "Requests waiting for a slot, by lane.")
	p.sample("backboned_admission_queued", float64(ast.Fast.Queued), "lane", "fast")
	p.sample("backboned_admission_queued", float64(ast.Cold.Queued), "lane", "cold")
	p.typ("backboned_admission_admitted_total", "counter", "Requests admitted into the worker pool, by lane.")
	p.sample("backboned_admission_admitted_total", float64(ast.Fast.Admitted), "lane", "fast")
	p.sample("backboned_admission_admitted_total", float64(ast.Cold.Admitted), "lane", "cold")
	p.typ("backboned_admission_sheds_total", "counter", "Requests shed with 503, by lane.")
	p.sample("backboned_admission_sheds_total", float64(ast.Fast.Sheds), "lane", "fast")
	p.sample("backboned_admission_sheds_total", float64(ast.Cold.Sheds), "lane", "cold")
	p.single("backboned_admission_deadline_rejects_total", "counter", "Requests refused because their budget could not cover the work ahead.", float64(ast.DeadlineRejects))
	p.single("backboned_expired_arrivals_total", "counter", "Requests whose propagated deadline was already spent on arrival.", float64(s.expiredArrivals.Load()))
	p.single("backboned_expired_before_scoring_total", "counter", "Scoring runs refused at the last gate because the deadline had passed.", float64(s.expiredBeforeScoring.Load()))
	p.single("backboned_deadline_violations_total", "counter", "Scoring runs that would have started past their deadline (must stay 0).", float64(s.deadlineViolations.Load()))

	p.single("backboned_evaluate_requests_total", "counter", "POST /evaluate calls.", float64(s.evalRequests.Load()))
	p.single("backboned_evaluate_cache_skips_total", "counter", "Method scorings /evaluate skipped via the score cache.", float64(s.evalCacheSkips.Load()))

	p.single("backboned_sessions_active", "gauge", "Resident incremental sessions.", float64(s.sessions.Len()))
	p.single("backboned_session_creates_total", "counter", "Sessions opened (POST /session).", float64(s.sessionCreates.Load()))
	p.single("backboned_session_updates_total", "counter", "Update batches applied to sessions.", float64(s.sessionUpdates.Load()))
	p.single("backboned_session_reads_total", "counter", "Session backbone/score reads.", float64(s.sessionReads.Load()))
	p.single("backboned_session_deletes_total", "counter", "Sessions closed with DELETE.", float64(s.sessionDeletes.Load()))
	p.single("backboned_session_evictions_total", "counter", "Sessions evicted past -max-sessions.", float64(s.sessions.Stats().Evictions))
	p.single("backboned_session_delta_invalidations_total", "counter", "Per-session score tables dirtied by update batches.", float64(s.sessionInvalidations.Load()))
	p.single("backboned_session_rescored_rows_total", "counter", "Score-table rows re-scored by incremental session reads.", float64(s.sessionRescoredRows.Load()))
	p.single("backboned_session_full_rescores_total", "counter", "Session reads that re-scored their whole table.", float64(s.sessionFullRescores.Load()))
	p.single("backboned_session_owner_unavailable_total", "counter", "Session requests answered 503 because the owning peer was unreachable.", float64(s.sessionOwnerMiss.Load()))

	if s.graphDir != "" {
		p.single("backboned_mmap_hits_total", "counter", "Requests served a memory-mapped -graphdir graph.", float64(s.mmapHits.Load()))
		p.single("backboned_mmap_misses_total", "counter", "Request digests with no usable -graphdir file.", float64(s.mmapMisses.Load()))
		p.single("backboned_mmap_errors_total", "counter", "Unreadable or corrupt -graphdir files.", float64(s.mmapErrors.Load()))
		p.single("backboned_mmap_graphs", "gauge", "Graphs currently memory-mapped.", float64(s.mmapLoads.Load()))
		p.single("backboned_mmap_bytes", "gauge", "Bytes currently memory-mapped from -graphdir.", float64(s.mmapBytes.Load()))
	}

	if s.fleet != nil {
		p.typ("backboned_fleet_forwards_total", "counter", "Requests forwarded to a peer, by peer address.")
		p.typ("backboned_fleet_failures_total", "counter", "Forward attempts that failed terminally, by peer address.")
		p.typ("backboned_fleet_fallbacks_total", "counter", "Stateless requests degraded to local execution, by peer address.")
		for _, ps := range s.fleet.Stats() {
			if ps.Self {
				continue
			}
			p.sample("backboned_fleet_forwards_total", float64(ps.Forwards), "peer", ps.Addr)
			p.sample("backboned_fleet_failures_total", float64(ps.Failures), "peer", ps.Addr)
			p.sample("backboned_fleet_fallbacks_total", float64(ps.Fallbacks), "peer", ps.Addr)
		}
	}
}

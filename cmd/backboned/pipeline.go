package main

// The request pipeline: every scoring and session endpoint runs the
// stages intake, route, classify, admit, chaos and compute (which runs
// resolve, score gate, score and write) over one *call. Facts about the
// request — the body digest above all — are derived once and kept on
// the call.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/admission"
	"repro/internal/fleet"
	"repro/internal/resilient"
)

// call is one request on its way through the pipeline.
type call struct {
	ep     *endpoint
	w      http.ResponseWriter // chaos may wrap it
	r      *http.Request
	q      url.Values
	ctx    context.Context // the request's deadline budget
	cancel context.CancelFunc
	body   []byte

	// id names the session a /session/{id}/... request addresses and
	// idSum is the routing digest embedded in it; sess is that session,
	// looked up once admitted.
	id    string
	idSum [sha256.Size]byte
	sess  *session

	// key content-addresses the body's graph. intake fixes its mode and
	// the query's directedness; an envelope's own directed field lands
	// when the graph stage decodes it. key.sum is valid once hashed is
	// set: digest computes it on first use, so no stage hashes the body
	// twice and a request that never needs the digest never hashes.
	key    graphKey
	hashed bool
	env    *envelope // the decoded JSON envelope, once the graph stage ran

	lane    admission.Lane
	costKey string
	// outcome is what the admission ticket reports to the AIMD
	// controller: OK completions are latency evidence, a deadline death
	// mid-execution is a congestion signal, everything else (caller
	// mistakes, panics, vanished clients) is noise.
	outcome admission.Outcome

	g         *repro.Graph
	method    *repro.Method // the one method of /backbone, /score and session reads
	opts      []repro.Option
	topSet    bool // a top/frac pruning option is present
	outFormat string
	asJSON    bool
}

// endpoint is what one handler contributes to the pipeline: where its
// routing digest comes from, what an unreachable owner means, its lane
// rule and its compute step.
type endpoint struct {
	s     *server
	post  bool           // POST only; the session routes pin their method in the mux pattern
	multi bool           // /evaluate's method selection
	count *atomic.Uint64 // bumped on arrival next to the request counter; may be nil
	// byID routes by the digest embedded in the session ID instead of
	// the body's; pinned answers an unreachable owner with 503 instead
	// of degrading to local execution.
	byID, pinned bool
	// classify picks the admission lane and cost key; nil skips the
	// admit and chaos stages (DELETE holds no worker slot).
	classify func(*call) (admission.Lane, string)
	// compute runs once the request is admitted. It writes the response
	// and returns nil, or returns the error to answer with.
	compute func(*call) error
}

// ServeHTTP runs one request through the pipeline; a stage that fails
// returns the error to answer with.
func (ep *endpoint) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c := &call{ep: ep, w: w, r: r, q: r.URL.Query(), outcome: admission.Errored}
	if err := ep.s.stages(c); err != nil {
		ep.s.fail(c.w, statusFor(err), err)
	}
}

// stages runs the stages in order. Only the body read and the forward
// happen before admission: forwarding must not hold a local worker slot
// hostage to a remote peer's latency, or a slow peer would saturate
// this pool too and couple the failure domains the fleet exists to
// separate. Parsing is multi-core since the chunked codec, so it runs
// inside the pool with the scoring it feeds.
func (s *server) stages(c *call) error {
	ep := c.ep
	if err := s.intake(c); err != nil {
		return err
	}
	defer c.cancel()
	if relayed, err := s.route(c); relayed || err != nil {
		return err
	}
	if ep.classify != nil {
		c.lane, c.costKey = ep.classify(c)
		tk, err := s.admit(c)
		if err != nil {
			return err
		}
		// Deferred at once: a panicking handler must still return its
		// slot, or the pool shrinks by one forever (regression-pinned
		// by TestPanickingHandlerReleasesSlot).
		defer func() { tk.Release(c.outcome) }()
		if err := s.chaos(c); err != nil {
			return err
		}
	}
	if ep.byID {
		if c.sess, _ = s.sessions.Get(c.id); c.sess == nil {
			return &statusError{http.StatusNotFound, fmt.Errorf("unknown session %q", c.id)}
		}
	}
	err := ep.compute(c)
	switch {
	case err == nil:
		c.outcome = admission.OK
	case statusFor(err) == http.StatusGatewayTimeout:
		c.outcome = admission.Timeout
	}
	return err
}

// statusError pins the HTTP status of an error whose type does not
// imply one (statusFor maps the typed pipeline errors).
type statusError struct {
	status int
	err    error
}

func (e *statusError) Error() string { return e.err.Error() }
func (e *statusError) Unwrap() error { return e.err }

// intake is the first stage: method check, counters, the session ID,
// the per-request budget and the body. The budget is the smaller of
// the local -timeout and the propagated X-Backbone-Deadline header
// (remaining milliseconds, stamped by a forwarding peer or a
// deadline-aware client); a budget already spent upstream is answered
// 504 before any byte of work. The body is read before admission — it
// is I/O-bound, and draining it lets the connection's background read
// detect a vanished client while the request queues for a slot. On
// success the caller must cancel the budget with the request.
func (s *server) intake(c *call) error {
	r, ep := c.r, c.ep
	if ep.post && r.Method != http.MethodPost {
		c.w.Header().Set("Allow", http.MethodPost)
		return &statusError{http.StatusMethodNotAllowed, fmt.Errorf("%s requires POST", r.URL.Path)}
	}
	s.requests.Add(1)
	if ep.count != nil {
		ep.count.Add(1)
	}
	if ep.byID {
		c.id = r.PathValue("id")
		sum, ok := parseSessionID(c.id)
		if !ok {
			return &statusError{http.StatusBadRequest, fmt.Errorf("malformed session id %q", c.id)}
		}
		c.idSum = sum
	} else if err := c.shapeKey(); err != nil {
		return err
	}

	budget := s.timeout
	if v := r.Header.Get(fleet.DeadlineHeader); v != "" {
		ms, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		switch {
		case err != nil:
			// Garbage is ignored, not fatal: the header is advisory and
			// the local -timeout still bounds the request.
		case ms <= 0:
			s.expiredArrivals.Add(1)
			return &statusError{http.StatusGatewayTimeout,
				fmt.Errorf("request budget already expired upstream (%s: %s)", fleet.DeadlineHeader, v)}
		default:
			if d := time.Duration(ms) * time.Millisecond; budget <= 0 || d < budget {
				budget = d
			}
		}
	}
	c.ctx, c.cancel = r.Context(), func() {}
	if budget > 0 {
		c.ctx, c.cancel = context.WithTimeout(c.ctx, budget)
	}
	body, err := io.ReadAll(http.MaxBytesReader(c.w, r.Body, s.maxBody))
	if err != nil {
		c.cancel()
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return &statusError{http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", mbe.Limit)}
		}
		return &statusError{http.StatusBadRequest, fmt.Errorf("read body: %v", err)}
	}
	c.body = body
	return nil
}

// shapeKey fixes everything in the graph key but the digest: the input
// mode (a registered format name from ?format= or the Content-Type,
// "sniff", or "envelope") and the query's directedness.
func (c *call) shapeKey() error {
	ct := c.r.Header.Get("Content-Type")
	if mt, _, err := mime.ParseMediaType(ct); err == nil {
		ct = mt
	}
	c.key.directed = c.q.Get("directed") == "true" || c.q.Get("directed") == "1"
	if ct == "application/json" {
		c.key.mode = "envelope"
		return nil
	}
	c.key.mode = "sniff"
	name := c.q.Get("format")
	if name == "" {
		name = contentTypeFormat(ct)
	}
	if name == "" {
		return nil
	}
	f, err := repro.LookupFormat(name)
	if err != nil {
		return err
	}
	c.key.mode = f.Name
	return nil
}

// digest is the body's sha256, computed on first use.
func (s *server) digest(c *call) [sha256.Size]byte {
	if !c.hashed {
		c.key.sum, c.hashed = sha256.Sum256(c.body), true
		s.bodyDigests.Add(1)
	}
	return c.key.sum
}

// methodNames is the request's method selection, in precedence order:
// /evaluate's ?methods= list, ?method=, the envelope's method field,
// then the default (nc; every registered method for /evaluate). ok is
// false while the answer — or the directedness the graph key takes from
// an envelope — still waits on an undecoded envelope.
func (c *call) methodNames() (names []string, ok bool) {
	multi := c.ep.multi
	if multi {
		for _, name := range strings.Split(c.q.Get("methods"), ",") {
			if name = strings.TrimSpace(name); name != "" {
				names = append(names, name)
			}
		}
	}
	if len(names) == 0 && c.q.Get("method") != "" {
		names = []string{c.q.Get("method")}
	}
	pending := c.key.mode == "envelope" && c.env == nil
	if pending && c.q.Get("directed") == "" {
		return nil, false
	}
	if len(names) == 0 && c.env != nil && c.env.Method != "" {
		names = []string{c.env.Method}
	}
	switch {
	case len(names) > 0:
	case pending:
		return nil, false
	case !multi:
		names = []string{"nc"}
	default:
		for _, m := range repro.Methods() {
			names = append(names, m.Name)
		}
	}
	return names, true
}

// servedByHeader names the peer whose worker pool computed (or cached)
// the response; degradedHeader appears only when the body's owning
// peer could not answer and the receiving peer computed the result
// itself — correctness kept, cache locality lost.
const (
	servedByHeader = "X-Backbone-Served-By"
	degradedHeader = "X-Backbone-Degraded"
)

// route is the fleet stage. It reports whether the owning peer's
// response has been relayed, or the error to answer with. Otherwise
// this peer serves the request — it owns the routing digest, the request already
// made its one hop, or the owner cannot answer and the endpoint
// degrades to local execution. A pinned endpoint answers an unreachable
// owner with 503 instead: only the owner holds a session's state, so a
// local answer would silently diverge.
func (s *server) route(c *call) (relayed bool, err error) {
	if s.fleet == nil {
		return false, nil
	}
	self := s.fleet.Self()
	// A request that already made its hop (the forwarded header) is
	// served here whatever our own ring says, so divergent membership
	// views cannot ping-pong it.
	addr, sum := self, c.idSum
	if c.r.Header.Get(fleet.ForwardedHeader) == "" {
		if !c.ep.byID {
			sum = s.digest(c)
		}
		addr = s.fleet.Owner(sum)
	}
	if addr == self {
		c.w.Header().Set(servedByHeader, self)
		return false, nil
	}
	// Identical concurrent forwards coalesce on the flight digest: the
	// body's for a POST (set semantics make identical session updates
	// idempotent, and distinct ones must never share one upstream
	// call), the session's for a read or delete.
	flight := sum
	if c.r.Method == http.MethodPost {
		flight = s.digest(c)
	}
	resp, err := s.fleet.ForwardRequest(c.ctx, addr, flight, c.r.Method, c.r.URL.Path,
		c.r.URL.RawQuery, c.r.Header.Get("Content-Type"), c.r.Header.Get("Accept"), c.body)
	switch {
	case err == nil:
		for name, vals := range resp.Header {
			c.w.Header()[name] = vals
		}
		c.w.Header().Set(servedByHeader, addr)
		c.w.WriteHeader(resp.Status)
		if _, err := c.w.Write(resp.Body); err != nil {
			s.logf("fleet: relay response from %s: %v", addr, err)
		}
		return true, nil
	case c.ctx.Err() != nil:
		// The request itself is out of budget (client gone or
		// timeout): local execution could not finish either.
		return false, c.ctx.Err()
	case c.ep.pinned:
		s.sessionOwnerMiss.Add(1)
		c.w.Header().Set("Retry-After", "1")
		return false, &statusError{http.StatusServiceUnavailable,
			fmt.Errorf("session owner %s unavailable (sessions do not degrade): %v", addr, err)}
	}
	// Degrade gracefully: the owner cannot answer, so this peer
	// computes the result itself. Correctness is never lost on peer
	// failure — only the owner's cache locality.
	s.fleet.RecordFallback(addr)
	reason := "peer-unavailable"
	if errors.Is(err, resilient.ErrOpen) {
		reason = "breaker-open"
	}
	s.logf("fleet: degrading to local execution for %s (%s): %v", addr, reason, err)
	c.w.Header().Set(servedByHeader, self)
	c.w.Header().Set(degradedHeader, reason)
	return false, nil
}

// laneOf is a classify stage that always picks the same lane.
func laneOf(lane admission.Lane, costKey string) func(*call) (admission.Lane, string) {
	return func(*call) (admission.Lane, string) { return lane, costKey }
}

// classifyBody is the classify stage of /backbone, /score and
// /evaluate: the fast lane when every table the request needs is
// already cached under the very key and methods the score stage will
// use — serving is then pruning plus serialization, so it is never
// starved behind cold scoring. An mmap-served -graphdir body skips
// parsing, but its first-touch scoring is still cold work. An envelope
// that leaves its method or directedness to its JSON cannot be keyed
// before it is decoded, so it queues cold.
func (s *server) classifyBody(c *call) (admission.Lane, string) {
	names, ok := c.methodNames()
	costKey := "evaluate"
	if !c.ep.multi {
		costKey = "envelope"
		if ok {
			costKey = names[0]
		}
	}
	if !ok {
		return admission.Cold, costKey
	}
	s.digest(c)
	for _, name := range names {
		if !s.scores.Contains(scoreKey{g: c.key, method: name}) {
			return admission.Cold, costKey
		}
	}
	return admission.Fast, "cached"
}

// admit is the admission stage: the adaptive worker pool
// (internal/admission) under the call's lane and latency cost key. A
// shed — queue full, queue wait expired, or a budget that cannot cover
// the observed p90 cost of the work ahead — is a 503 whose Retry-After
// is computed from queue depth; a budget already expired on arrival is
// a 504. The caller must defer a granted ticket's Release at once.
func (s *server) admit(c *call) (*admission.Ticket, error) {
	tk, err := s.limiter.Acquire(c.ctx, c.lane, c.costKey)
	var shed *admission.ShedError
	switch {
	case err == nil:
		return tk, nil
	case errors.As(err, &shed):
		c.w.Header().Set("Retry-After", strconv.Itoa(shed.RetryAfterSeconds()))
		return nil, &statusError{http.StatusServiceUnavailable, fmt.Errorf("worker pool saturated: %w", err)}
	case errors.Is(err, admission.ErrExpired):
		return nil, &statusError{http.StatusGatewayTimeout, err}
	}
	return nil, &statusError{http.StatusInternalServerError, err}
}

// chaosPartialLimit is how much of a response the partial-fault
// injector lets through before aborting the connection.
const chaosPartialLimit = 64

// chaosWriter truncates the response after a byte budget and aborts
// the connection (http.ErrAbortHandler unwinds through the handler and
// net/http closes the stream mid-body) — the partial-response failure
// a forwarding peer must detect and fall back from.
type chaosWriter struct {
	http.ResponseWriter
	remaining int
}

func (cw *chaosWriter) Write(p []byte) (int, error) {
	if len(p) <= cw.remaining {
		cw.remaining -= len(p)
		return cw.ResponseWriter.Write(p)
	}
	cw.ResponseWriter.Write(p[:cw.remaining]) //nolint:errcheck // aborting anyway
	cw.remaining = 0
	if f, ok := cw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
	panic(http.ErrAbortHandler)
}

// chaos is the -chaos stage: injected latency and errors before any
// work, and a truncating writer for the response.
func (s *server) chaos(c *call) error {
	if s.fault == nil {
		return nil
	}
	if err := s.fault.Inject(c.ctx); err != nil {
		return err
	}
	if s.fault.Partial() {
		c.w = &chaosWriter{ResponseWriter: c.w, remaining: chaosPartialLimit}
	}
	return nil
}

// resolveGraph is the graph half of the resolve stage: the body's graph
// through the content-addressed cache — identical bodies parse once,
// concurrent identical bodies parse once between them — or, for a
// -graphdir body, its memory-mapped twin. A JSON envelope is decoded
// first; its directedness completes the graph key unless the query set
// one.
func (s *server) resolveGraph(c *call) error {
	if c.key.mode == "envelope" {
		dec := json.NewDecoder(bytes.NewReader(c.body))
		dec.UseNumber()
		env := &envelope{}
		if err := dec.Decode(env); err != nil {
			return &statusError{http.StatusBadRequest, fmt.Errorf("bad JSON envelope: %v", err)}
		}
		if len(env.Edges) == 0 {
			return &statusError{http.StatusBadRequest, errors.New("JSON envelope has no edges")}
		}
		c.env = env
		if c.q.Get("directed") == "" {
			c.key.directed = env.Directed
		}
	} else if c.key.mode != "sniff" {
		c.outFormat = c.key.mode // the response mirrors a named input format
	}
	s.digest(c)
	if c.env == nil {
		// -graphdir fast path: a pre-converted binary twin of this body
		// is memory-mapped instead of parsed (and instead of occupying
		// LRU budget — the mapping is shared and the page cache owns
		// the bytes).
		c.g = s.mmapGraph(c.key.sum, c.key.directed)
	}
	if c.g == nil {
		g, _, err := s.graphs.Do(c.ctx, c.key, func() (*repro.Graph, int64, error) {
			var g *repro.Graph
			var err error
			if c.env != nil {
				g, err = buildEnvelopeGraph(c.env, c.key.directed)
			} else {
				readOpts := []repro.IOOption{repro.WithDirected(c.key.directed)}
				if c.key.mode != "sniff" {
					readOpts = append(readOpts, repro.WithFormat(c.key.mode))
				}
				if g, err = repro.ReadGraph(bytes.NewReader(c.body), readOpts...); err != nil {
					err = fmt.Errorf("bad edge list: %w", err)
				}
			}
			if err != nil {
				return nil, 0, err
			}
			return g, graphCost(g), nil
		})
		if err != nil {
			// Context expiry keeps its own status (a cache follower can
			// observe its own cancellation while waiting); anything else
			// is a caller mistake.
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return err
			}
			return &statusError{http.StatusBadRequest, err}
		}
		c.g = g
	}
	if c.g.NumEdges() == 0 {
		// Every method fails on an empty graph; it is the caller's to fix.
		return &statusError{http.StatusBadRequest, errors.New("edge list has no edges")}
	}
	return nil
}

// queryReserved are the query keys with fixed meanings; every other
// key must name a parameter of the selected method (of some selected
// method, for /evaluate). "parallel" is a no-op kept for old clients.
var queryReserved = map[string]bool{
	"method": true, "top": true, "frac": true, "parallel": true,
	"directed": true, "format": true, "outformat": true, "response": true,
}

// resolveOptions is the options half of the resolve stage: the method,
// its parameters and pruning from the envelope and the
// query — query overrides envelope, across option kinds — then the
// response shaping. /evaluate leaves method names and parameter
// declaration to the engine, and its report is always JSON, so
// "outformat" and "response" are accepted no-ops there.
func (c *call) resolveOptions() error {
	q, multi := c.q, c.ep.multi
	methodName := ""
	if !multi {
		names, _ := c.methodNames()
		m, err := repro.LookupMethod(names[0])
		if err != nil {
			return err
		}
		c.method, methodName = m, m.Name
		c.opts = append(c.opts, repro.WithMethod(m.Name))
	}
	var top *int
	var frac *float64
	if env := c.env; env != nil {
		for name, v := range env.Params {
			c.opts = append(c.opts, repro.WithParam(name, v))
		}
		// Envelope pruning applies only when the query carries none, or
		// an envelope "top" would silently beat a query ?frac= (the
		// pipeline prefers topK whenever both are set).
		if q.Get("top") == "" && q.Get("frac") == "" {
			top, frac = env.Top, env.Frac
		}
	}
	for name, vals := range q {
		if queryReserved[name] || (multi && name == "methods") {
			continue
		}
		if c.method != nil {
			if _, ok := c.method.Param(name); !ok {
				return &repro.ParamError{
					Method: methodName, Param: name,
					Reason: "unknown query parameter",
					Err:    repro.ErrUnknownParam,
				}
			}
		}
		v, err := strconv.ParseFloat(vals[0], 64)
		if err != nil {
			return &repro.ParamError{Method: methodName, Param: name, Reason: fmt.Sprintf("not a number: %q", vals[0])}
		}
		c.opts = append(c.opts, repro.WithParam(name, v))
	}
	if v := q.Get("top"); v != "" {
		k, err := strconv.Atoi(v)
		if err != nil {
			return &repro.ParamError{Param: "top", Reason: fmt.Sprintf("not an integer: %q", v)}
		}
		top = &k
	}
	if v := q.Get("frac"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return &repro.ParamError{Param: "frac", Reason: fmt.Sprintf("not a number: %q", v)}
		}
		frac = &f
	}
	if top != nil {
		c.opts = append(c.opts, repro.WithTopK(*top))
	}
	if frac != nil {
		c.opts = append(c.opts, repro.WithTopFraction(*frac))
	}
	c.topSet = top != nil || frac != nil
	if multi {
		return nil
	}
	if v := q.Get("outformat"); v != "" {
		f, err := repro.LookupFormat(v)
		if err != nil {
			return err
		}
		c.outFormat = f.Name
	}
	if c.outFormat == "" {
		c.outFormat = "csv"
	}
	c.asJSON = q.Get("response") == "json" || strings.Contains(c.r.Header.Get("Accept"), "application/json")
	return nil
}

// scoreGate is the last check before scoring work starts: a request
// whose deadline has already passed is refused here, whatever got it
// this far (queue wait, parse time, a follower joining a dead
// leader's flight). The violation counter records a past-deadline
// start the context machinery had not yet surfaced — the overload e2e
// asserts it stays zero.
func (s *server) scoreGate(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		s.expiredBeforeScoring.Add(1)
		return err
	}
	if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
		s.deadlineViolations.Add(1)
		s.expiredBeforeScoring.Add(1)
		return context.DeadlineExceeded
	}
	return nil
}

// cachedScores resolves one method's significance table for a parsed
// body through the score cache with single-flight de-duplication:
// identical bodies with the same method score once, no matter how the
// method's parameters differ (they only move thresholds). /backbone,
// /score and /evaluate all ride this, so they share one table per
// (body, method). The returned hit flag reports whether this call
// skipped scoring.
func (s *server) cachedScores(ctx context.Context, c *call, method string) (*repro.Scores, bool, error) {
	return s.scores.Do(ctx, scoreKey{g: c.key, method: method}, func() (*repro.Scores, int64, error) {
		if err := s.scoreGate(ctx); err != nil {
			return nil, 0, err
		}
		sc, err := repro.ScoreContext(ctx, c.g, repro.WithMethod(method))
		if err != nil {
			return nil, 0, err
		}
		return sc, scoresCost(sc), nil
	})
}

// answer is the score and write stages of /backbone and /score, over a
// posted body's graph or a session's. table supplies the method's
// significance table and whether it was already at hand; it runs only
// when something will prune the table — top/frac, the method's own Cut
// rule, or a /score response. A scorer without Cut (ds) otherwise runs
// its Extractor as always. X-Backbone-Cache reports "hit" when the
// table was at hand, so the request skipped scoring.
func (s *server) answer(c *call, g *repro.Graph, table func() (*repro.Scores, bool, error)) error {
	m := c.method
	scoreOnly := strings.HasSuffix(c.r.URL.Path, "/score")
	var sc *repro.Scores
	cacheState := "miss"
	if m.CanScore() && (scoreOnly || c.topSet || m.Cut != nil) {
		var hit bool
		var err error
		if sc, hit, err = table(); err != nil {
			return err
		}
		if hit {
			cacheState = "hit"
		}
		// A cached table references its own (identical-content) graph;
		// downstream pruning and coverage must use that same value.
		g = sc.G
	}
	c.w.Header().Set("X-Backbone-Cache", cacheState)
	opts := c.opts
	if sc != nil {
		opts = append(opts, repro.WithScores(sc))
	}
	// Serving a table already at hand is no scoring run.
	if !scoreOnly || sc == nil {
		if err := s.scoreGate(c.ctx); err != nil {
			return err
		}
	}
	if scoreOnly {
		// Score checks the request as it would a library call (no
		// pruning options, declared parameters, a method that can
		// score) and hands back the table it was given.
		sc, err := repro.ScoreContext(c.ctx, g, opts...)
		if err != nil {
			return err
		}
		return s.writeScores(c, sc)
	}
	res, err := repro.BackboneContext(c.ctx, g, opts...)
	if err != nil {
		return err
	}
	return s.writeBackbone(c, g, res)
}

// computeRun is the compute step of POST /backbone and POST /score.
func (s *server) computeRun(c *call) error {
	if err := s.resolveGraph(c); err != nil {
		return err
	}
	if err := c.resolveOptions(); err != nil {
		return err
	}
	return s.answer(c, c.g, func() (*repro.Scores, bool, error) {
		return s.cachedScores(c.ctx, c, c.method.Name)
	})
}

// computeEvaluate is the compute step of POST /evaluate: one
// registry-wide, size-matched method comparison of the body's network
// as a JSON report. Every method's table resolves through the shared
// score cache, so tables computed by earlier /backbone, /score or
// /evaluate calls on the same body are reused, and concurrent identical
// evaluations coalesce per method.
func (s *server) computeEvaluate(c *call) error {
	if err := s.resolveGraph(c); err != nil {
		return err
	}
	if err := s.scoreGate(c.ctx); err != nil {
		return err
	}
	if err := c.resolveOptions(); err != nil {
		return err
	}
	names, _ := c.methodNames()
	// Concurrency 1: one admitted /evaluate request runs at most one
	// scoring computation at a time, so -workers stays an honest cap on
	// concurrent scoring regardless of how many methods are compared.
	opts := append(c.opts, repro.WithEvalConcurrency(1), repro.WithMethods(names...),
		repro.WithScoreSource(func(ctx context.Context, m *repro.Method) (*repro.Scores, bool, error) {
			return s.cachedScores(ctx, c, m.Name)
		}))
	rep, err := repro.CompareContext(c.ctx, c.g, opts...)
	if err != nil {
		return err
	}
	s.evalCacheSkips.Add(uint64(rep.CacheHits))

	cacheState := "miss"
	if rep.ScoredMethods > 0 && rep.CacheHits == rep.ScoredMethods {
		cacheState = "hit" // every needed table was cached: zero scoring ran
	}
	h := c.w.Header()
	h.Set("X-Backbone-Cache", cacheState)
	h.Set("X-Backbone-Eval-Methods", strconv.Itoa(len(rep.Methods)))
	h.Set("X-Backbone-Eval-Scored", strconv.Itoa(rep.ScoredMethods))
	h.Set("X-Backbone-Eval-Cached", strconv.Itoa(rep.CacheHits))
	h.Set("X-Backbone-Duration-Ms", strconv.FormatInt(rep.DurationMs, 10))
	h.Set("Content-Type", "application/json")
	if err := json.NewEncoder(c.w).Encode(rep); err != nil {
		s.logf("write evaluate response: %v", err)
	}
	return nil
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/resilient"
)

// envelopeBody is a JSON envelope that names its own method.
const envelopeBody = `{"method":"df","edges":[` +
	`{"src":"a","dst":"b","weight":10},{"src":"a","dst":"c","weight":9},` +
	`{"src":"b","dst":"c","weight":1},{"src":"c","dst":"d","weight":8},` +
	`{"src":"d","dst":"e","weight":7},{"src":"c","dst":"e","weight":2}]}`

// post sends one request and returns the response with its body read.
func post(t testing.TB, url, contentType, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(out)
}

// TestEnvelopeLaneMatchesScorer: admission must classify a request with
// the same graph key and method the score stage uses. An envelope that
// leaves its method to its JSON cannot be classified before it is
// decoded, so it queues cold — even when a table for the query-default
// method is cached for the same bytes.
func TestEnvelopeLaneMatchesScorer(t *testing.T) {
	_, ts := newTestServer(t, 2, 5*time.Second)

	// ?method=nc overrides the envelope's df: nc is scored and cached.
	if resp, out := post(t, ts.URL+"/backbone?method=nc", "application/json", envelopeBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("query-method envelope: status %d: %s", resp.StatusCode, out)
	}
	before := fetchAdmissionStatsz(t, ts.URL)
	resp, out := post(t, ts.URL+"/backbone", "application/json", envelopeBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("envelope method: status %d: %s", resp.StatusCode, out)
	}
	if got := resp.Header.Get("X-Backbone-Method"); got != "df" {
		t.Fatalf("X-Backbone-Method %q, want df (the envelope's method)", got)
	}
	if got := resp.Header.Get("X-Backbone-Cache"); got != "miss" {
		t.Fatalf("X-Backbone-Cache %q, want miss (df was never scored)", got)
	}
	after := fetchAdmissionStatsz(t, ts.URL)
	if fast, cold := after.Fast.Admitted-before.Fast.Admitted, after.Cold.Admitted-before.Cold.Admitted; fast != 0 || cold != 1 {
		t.Errorf("cold-scoring envelope admitted fast+%d cold+%d, want fast+0 cold+1", fast, cold)
	}

	// Spelled out in the query, the same bytes key exactly: a hit rides
	// the fast lane.
	before = after
	resp, out = post(t, ts.URL+"/backbone?method=df&directed=false", "application/json", envelopeBody)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Backbone-Cache") != "hit" {
		t.Fatalf("query-keyed envelope: status %d, cache %q: %s", resp.StatusCode, resp.Header.Get("X-Backbone-Cache"), out)
	}
	after = fetchAdmissionStatsz(t, ts.URL)
	if fast, cold := after.Fast.Admitted-before.Fast.Admitted, after.Cold.Admitted-before.Cold.Admitted; fast != 1 || cold != 0 {
		t.Errorf("cached envelope admitted fast+%d cold+%d, want fast+1 cold+0", fast, cold)
	}
}

// bodyOwnedBy returns a generated CSV body whose rendezvous owner is
// peer i of the fleet.
func bodyOwnedBy(t *testing.T, h *fleetHarness, i int) []byte {
	t.Helper()
	for seed := int64(1); seed < 200; seed++ {
		if body := fleetGraphBody(t, seed); h.ownerIndex(t, body) == i {
			return body
		}
	}
	t.Fatalf("no generated body hashed to peer %d", i)
	return nil
}

// TestScorePruningIsCallerMistake: /score with top/frac is a 400 on
// every peer. Sent to the non-owner of a two-peer fleet, it is relayed
// from the owner as a caller mistake: the owner records no forward
// failure and its breaker stays closed, so later requests for its
// bodies are not degraded.
func TestScorePruningIsCallerMistake(t *testing.T) {
	h := startFleet(t, 2, nil)
	body := bodyOwnedBy(t, h, 1)
	owner := h.addrs[1]

	for _, q := range []string{"top=5", "frac=0.5"} {
		resp, out := post(t, h.url(0)+"/score?method=nc&"+q, "text/csv", string(body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("/score?%s: status %d, want 400: %s", q, resp.StatusCode, out)
		}
		if got := resp.Header.Get(servedByHeader); got != owner {
			t.Errorf("/score?%s served by %q, want the owner %q", q, got, owner)
		}
	}
	if _, peers := fleetStatsz(t, h.url(0)); peers[owner].Failures != 0 {
		t.Errorf("owner failures = %d, want 0", peers[owner].Failures)
	}
	if st := h.servers[0].fleet.BreakerState(owner); st != resilient.Closed {
		t.Errorf("owner breaker %v, want closed", st)
	}
	resp, out := postFleet(t, h.url(0), body)
	if resp.StatusCode != http.StatusOK || resp.Header.Get(degradedHeader) != "" {
		t.Errorf("follow-up /backbone: status %d, degraded %q: %s", resp.StatusCode, resp.Header.Get(degradedHeader), out)
	}
}

// TestOneBodyDigestPerRequest pins the pipeline's digest budget: every
// peer a request reaches hashes its body at most once, and only when a
// stage needs the digest. Session reads never hash; session updates
// hash only to coalesce a forward.
func TestOneBodyDigestPerRequest(t *testing.T) {
	type step struct {
		name            string
		do              func() *http.Response
		entry, ownerSum uint64 // digests on the receiving peer, on the owner
	}
	check := func(t *testing.T, entry, owner *server, steps []step) {
		t.Helper()
		for _, st := range steps {
			e0, o0 := entry.bodyDigests.Load(), owner.bodyDigests.Load()
			resp := st.do()
			if resp.StatusCode >= 300 {
				t.Fatalf("%s: status %d", st.name, resp.StatusCode)
			}
			e, o := entry.bodyDigests.Load()-e0, owner.bodyDigests.Load()-o0
			if entry == owner {
				o = 0 // one peer: count its digests once
			}
			if e != st.entry || o != st.ownerSum {
				t.Errorf("%s: %d digests on the receiving peer, %d on the owner; want %d, %d",
					st.name, e, o, st.entry, st.ownerSum)
			}
		}
	}
	steps := func(t *testing.T, url string, body []byte, sess func() string) []step {
		req := func(method, path, ct string, b []byte) func() *http.Response {
			return func() *http.Response {
				r, err := http.NewRequest(method, url+path, bytes.NewReader(b))
				if err != nil {
					t.Fatal(err)
				}
				r.Header.Set("Content-Type", ct)
				resp, err := http.DefaultClient.Do(r)
				if err != nil {
					t.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				return resp
			}
		}
		g, err := repro.ReadGraph(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		labels := g.Labels()
		update := []byte(fmt.Sprintf(`{"updates":[{"src":%q,"dst":%q,"weight":3}]}`, labels[0], labels[1]))
		return []step{
			{name: "POST /backbone", do: req("POST", "/backbone?method=nc", "text/csv", body)},
			{name: "POST /backbone (cached)", do: req("POST", "/backbone?method=nc&delta=2", "text/csv", body)},
			{name: "POST /score", do: req("POST", "/score?method=df", "text/csv", body)},
			{name: "POST /evaluate", do: req("POST", "/evaluate?methods=nc,df", "text/csv", body)},
			{name: "POST /backbone (envelope)", do: req("POST", "/backbone", "application/json", []byte(envelopeBody))},
			{name: "POST /session", do: req("POST", "/session", "text/csv", body)},
			{name: "POST /session/{id}/update", do: func() *http.Response {
				return req("POST", "/session/"+sess()+"/update", "application/json", update)()
			}},
			{name: "GET /session/{id}/backbone", do: func() *http.Response {
				return req("GET", "/session/"+sess()+"/backbone?frac=0.5", "", nil)()
			}},
		}
	}
	// want fills the expected counts: stateless requests and session
	// creates hash once per peer they reach; updates once, on a
	// forwarding peer only; reads never.
	want := func(st []step, forwarded bool) []step {
		for i := range st {
			switch {
			case strings.HasPrefix(st[i].name, "GET"):
			case strings.HasSuffix(st[i].name, "/update"):
				if forwarded {
					st[i].entry = 1
				}
			case forwarded:
				st[i].entry, st[i].ownerSum = 1, 1
			default:
				st[i].entry = 1
			}
		}
		return st
	}

	t.Run("single-node", func(t *testing.T) {
		s, ts := newTestServer(t, 2, 5*time.Second)
		body := fleetGraphBody(t, 7)
		var id string
		st := steps(t, ts.URL, body, func() string { return id })
		want(st, false)
		check(t, s, s, st[:6])
		id = openSession(t, ts.URL, bytes.NewBuffer(body)).id
		check(t, s, s, st[6:])
	})
	t.Run("fleet", func(t *testing.T) {
		h := startFleet(t, 2, nil)
		for entry := 0; entry < 2; entry++ {
			body := bodyOwnedBy(t, h, 1)
			var id string
			st := steps(t, h.url(entry), body, func() string { return id })
			forwarded := entry != 1
			want(st, forwarded)
			// The envelope's own owner is whichever peer its bytes hash to.
			env := []byte(envelopeBody)
			envOwner := h.ownerIndex(t, env)
			st[4].entry, st[4].ownerSum = 1, 0
			if envOwner != entry {
				st[4].ownerSum = 1
			}
			check(t, h.servers[entry], h.servers[1], st[:4])
			check(t, h.servers[entry], h.servers[envOwner], st[4:5])
			check(t, h.servers[entry], h.servers[1], st[5:6])
			id = openSession(t, h.url(1), bytes.NewBuffer(body)).id
			check(t, h.servers[entry], h.servers[1], st[6:])
		}
	})
}

// fuzzServer serves FuzzHandleRun in-process, with no listener.
func fuzzServer() *server {
	return newServer(serverConfig{
		workers: 2, timeout: time.Second, maxBody: 1 << 20,
		graphCacheBytes: 8 << 20, scoreCacheBytes: 8 << 20,
	})
}

// FuzzHandleRun drives the scoring endpoints with arbitrary paths,
// queries, content types and bodies: whatever arrives, the daemon must
// neither panic nor answer 500 — every failure is a typed 4xx (or a
// timeout).
func FuzzHandleRun(f *testing.F) {
	csv := "a,b,1\nb,c,2\nc,a,3\n"
	f.Add(uint8(1), "top=5", "text/csv", []byte(csv))
	f.Add(uint8(1), "method=nc&frac=0.5", "text/csv", []byte(csv))
	f.Add(uint8(0), "method=nc", "application/json", []byte(envelopeBody))
	f.Add(uint8(0), "", "application/json", []byte(envelopeBody))
	f.Add(uint8(0), "method=df&top=2&outformat=ndjson", "", []byte(csv))
	f.Add(uint8(2), "methods=nc,df&frac=0.5", "text/csv", []byte(csv))
	f.Add(uint8(2), "", "application/json", []byte(envelopeBody))
	f.Add(uint8(0), "frac=.5", "text/csv", []byte{}) // an empty edge list
	s := fuzzServer()
	paths := []string{"/backbone", "/score", "/evaluate"}
	// The test-only registry entries are not served input: one panics by
	// design, the other sleeps. /evaluate compares every registered
	// method unless told otherwise, so it is told the served ones.
	var served []string
	for _, m := range repro.Methods() {
		if !strings.HasSuffix(m.Name, "test") {
			served = append(served, m.Name)
		}
	}
	f.Fuzz(func(t *testing.T, path uint8, query, contentType string, body []byte) {
		if strings.Contains(query+string(body), "test") {
			return
		}
		r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
		r.URL.Path = paths[int(path)%len(paths)]
		r.URL.RawQuery = query
		if q := r.URL.Query(); r.URL.Path == "/evaluate" && strings.Trim(q.Get("methods"), ", ") == "" {
			q.Set("methods", strings.Join(served, ","))
			r.URL.RawQuery = q.Encode()
		}
		r.Header.Set("Content-Type", contentType)
		w := httptest.NewRecorder()
		s.ServeHTTP(w, r)
		if w.Code == http.StatusInternalServerError {
			t.Fatalf("POST %s?%s (%s): 500: %s", r.URL.Path, query, contentType, w.Body.String())
		}
		if w.Code >= 400 {
			var e map[string]string
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e["error"] == "" {
				t.Fatalf("status %d without a JSON error body: %q", w.Code, w.Body.String())
			}
		}
	})
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/codec"
)

// newClient returns an HTTP client whose transport keeps at most one TCP
// connection to each host, so one client is one generator connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			MaxIdleConns:        2,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		},
	}
}

// sender issues one workload's requests against one base URL, reusing its
// scratch buffers across requests.
type sender struct {
	hc    *http.Client
	base  string
	w     *workload
	pool  *pool
	keys  [][]byte
	head  []byte
	resp  bytes.Buffer
	added []byte
}

func newSender(hc *http.Client, base string, w *workload, p *pool) *sender {
	s := &sender{hc: hc, base: base, w: w, pool: p, added: []byte(`"added":`)}
	for i := 0; i < w.keys; i++ {
		s.keys = append(s.keys, []byte(keyName(i)))
	}
	return s
}

// send issues req, with key k for keyed requests, and returns nil only for
// a 200 whose body is a well-formed answer: an ingest ack for every element
// sent, or a non-decreasing answer for every requested φ. The body stays in
// s.resp until the next call.
func (s *sender) send(ctx context.Context, req request, k int) error {
	var hr *http.Request
	var err error
	switch req.kind {
	case ingestFlat:
		hr, err = http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/v1/ingest", bytes.NewReader(s.pool.flat[req.frame]))
		if err == nil {
			hr.Header.Set("Content-Type", codec.IngestContentType)
		}
	case ingestKeyed:
		var tail [4]byte
		s.head, tail = s.pool.keyedHead(s.head, s.keys[k], req.frame)
		body := net.Buffers{s.head, s.pool.payload(req.frame), tail[:]}
		n := int64(len(s.head) + len(body[1]) + len(tail))
		hr, err = http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/v1/ingest/keyed", &body)
		if err == nil {
			hr.ContentLength = n
			hr.Header.Set("Content-Type", codec.KeyedIngestContentType)
		}
	default:
		hr, err = http.NewRequestWithContext(ctx, http.MethodGet, s.queryURL(req.kind, k), nil)
	}
	if err != nil {
		return err
	}
	resp, err := s.hc.Do(hr)
	if err != nil {
		return err
	}
	s.resp.Reset()
	_, err = s.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	body := s.resp.Bytes()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", resp.Status, firstLine(body))
	}
	if req.kind.ingest() {
		if n, ok := s.ackedCount(body); !ok || n != s.pool.elems {
			return fmt.Errorf("ack %q does not acknowledge %d elements", firstLine(body), s.pool.elems)
		}
		return nil
	}
	_, err = parseAnswers(body)
	return err
}

func (s *sender) queryURL(k kind, key int) string {
	u := s.base + "/quantile?phi=" + phiParam
	if k == queryKeyed || k == queryWindow {
		u += "&key=" + keyName(key)
	}
	if k == queryWindow {
		u += "&window=" + s.w.window.String()
	}
	return u
}

// ackedCount reads the "added" field of an ingest ack without a JSON decode.
func (s *sender) ackedCount(body []byte) (int, bool) {
	i := bytes.Index(body, s.added)
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(s.added):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	n, err := strconv.Atoi(string(rest[:j]))
	return n, err == nil
}

// getJSON fetches base+path and decodes a JSON body into out.
func getJSON(ctx context.Context, hc *http.Client, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// parseAnswers decodes a /quantile body into one value per φ of phis and
// checks they do not decrease.
func parseAnswers(body []byte) ([]float64, error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("decoding answer %q: %w", firstLine(body), err)
	}
	out := make([]float64, len(phis))
	for i, phi := range phis {
		raw, ok := m[strconv.FormatFloat(phi, 'g', -1, 64)]
		if !ok {
			return nil, fmt.Errorf("answer %q lacks phi %g", firstLine(body), phi)
		}
		if err := json.Unmarshal(raw, &out[i]); err != nil {
			return nil, fmt.Errorf("answer for phi %g: %w", phi, err)
		}
		if i > 0 && out[i] < out[i-1] {
			return nil, fmt.Errorf("answers decrease from phi %g to %g", phis[i-1], phi)
		}
	}
	return out, nil
}

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}

// rec is one finished operation. Times are offsets from the run's base
// instant. latency counts from the moment the request was due, so a stall
// also delays the requests queued behind it; lag is how late the generator
// itself sent it, measured from max(due, connection free), and is excluded
// from latency.
type rec struct {
	req      request
	key      int
	send     time.Duration
	done     time.Duration
	latency  time.Duration
	lag      time.Duration
	err      error
	measured bool
}

// loop drives one connection: closed loop when interval is 0 (the next
// request goes out as soon as the previous one returns), open loop
// otherwise, with request i due at start + i·interval whatever the server
// does.
type loop struct {
	s        *sender
	base     time.Time
	start    time.Duration // first request due
	measure  time.Duration // requests due in [measure, until) are measured
	until    time.Duration
	stop     time.Duration // no request is due at or after stop
	interval time.Duration
	next     func() request
	// resolve maps a request's key draw onto a key the generator has
	// ingested; false skips the slot, which is neither sent nor counted.
	resolve func(request) (key int, ok bool)
	// acked sees every successful operation, from the loop's goroutine.
	acked func(rec)
}

func (l *loop) run(ctx context.Context) []rec {
	var recs []rec
	free := l.start
	for i := 0; ctx.Err() == nil; i++ {
		req := l.next()
		due := free
		if l.interval > 0 {
			due = l.start + time.Duration(i)*l.interval
		}
		if due >= l.stop {
			break
		}
		if wait := due - time.Since(l.base); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				t.Stop()
				return recs
			case <-t.C:
			}
		}
		key := req.key
		if l.resolve != nil {
			var ok bool
			if key, ok = l.resolve(req); !ok {
				continue
			}
		}
		send := time.Since(l.base)
		err := l.s.send(ctx, req, key)
		done := time.Since(l.base)
		ref := max(due, free)
		r := rec{
			req: req, key: key, send: send, done: done,
			latency: done - send + ref - due, lag: send - ref,
			err: err, measured: due >= l.measure && due < l.until,
		}
		free = done
		recs = append(recs, r)
		if err == nil && l.acked != nil {
			l.acked(r)
		}
	}
	return recs
}

// ingested tracks which query targets hold acknowledged data, so queries
// only ever ask for streams the generator has written. Keyed queries go to
// the hot keys, the first hot indices of the key space.
type ingested struct {
	flat atomic.Bool
	keys []atomic.Bool
	hot  int
}

func newIngested(keys, hot int) *ingested {
	return &ingested{keys: make([]atomic.Bool, keys), hot: max(hot, 1)}
}

func (g *ingested) ack(r rec) {
	switch r.req.kind {
	case ingestFlat:
		g.flat.Store(true)
	case ingestKeyed:
		g.keys[r.key].Store(true)
	}
}

// resolve maps a query onto an ingested target: a keyed draw moves to the
// next ingested hot key, and a query whose stream holds nothing yet is
// skipped.
func (g *ingested) resolve(req request) (int, bool) {
	if req.kind == queryFlat {
		return 0, g.flat.Load()
	}
	for i := range g.hot {
		if k := (req.key + i) % g.hot; g.keys[k].Load() {
			return k, true
		}
	}
	return 0, false
}

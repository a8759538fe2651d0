package main

import (
	"bytes"
	"net/http"
	"strings"
	"sync"
	"time"
)

// clients is the closed loop's size: each client sends its next request only
// when the last one has returned, as a Unicorn caller does.
const clients = 2

// client is one closed-loop HTTP caller with its own keep-alive connection
// and its own deterministic request stream.
type client struct {
	base   string
	http   *http.Client
	stream *requestStream
	buf    bytes.Buffer
}

func newClients(base string, mix servingMix, seed int64) []*client {
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = &client{
			base: base,
			http: &http.Client{Transport: &http.Transport{
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			}},
			stream: newRequestStream(mix, seed, i),
		}
	}
	return cs
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.http.CloseIdleConnections()
	}
}

// tally is what one stretch of load produced.
type tally struct {
	attempted, failed int64
	lat               []int64 // client-observed latency per request, ns
	done              []int64 // completion time per request, ns since the load began
	elapsed           time.Duration
	acked             []string // keys of accepted creates
	ackedBytes        int64    // key plus value bytes of accepted creates
	reqs              []reqRec // traced requests, when a recorder is on
	firstFailure      string
}

func (t *tally) add(o *tally) {
	t.elapsed += o.elapsed
	t.attempted += o.attempted
	t.failed += o.failed
	t.lat = append(t.lat, o.lat...)
	t.done = append(t.done, o.done...)
	t.acked = append(t.acked, o.acked...)
	t.ackedBytes += o.ackedBytes
	t.reqs = append(t.reqs, o.reqs...)
	if t.firstFailure == "" {
		t.firstFailure = o.firstFailure
	}
}

// windowed splits the requests into windows of w by completion time and
// returns the median, over the whole windows, of each window's completed
// requests per second and of its latency quantiles qs, in ns. Medians over
// windows keep a transient stall (an fsync outlier, a GC burst) in one
// window from moving the run's figures.
func (t *tally) windowed(w time.Duration, qs ...float64) (rate float64, lat []float64) {
	n := max(int(t.elapsed/w), 1)
	byWindow := make([][]int64, n)
	for i, d := range t.done {
		if k := int(d / int64(w)); k < n {
			byWindow[k] = append(byWindow[k], t.lat[i])
		}
	}
	rates := make([]float64, n)
	perQ := make([][]float64, len(qs))
	for k, l := range byWindow {
		l = sortedCopy(l)
		rates[k] = float64(len(l)) / w.Seconds()
		for j, q := range qs {
			perQ[j] = append(perQ[j], float64(percentile(l, q)))
		}
	}
	for _, v := range perQ {
		lat = append(lat, median(v))
	}
	return median(rates), lat
}

// runLoad drives the closed loop for d and waits for both clients' last
// requests. With rec on, each request is also recorded for the trace.
func runLoad(cs []*client, d time.Duration, rec *recorder) tally {
	per := make([]tally, len(cs))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i, c := range cs {
		wg.Add(1)
		go func(c *client, t *tally) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				c.one(c.stream.next(), start, t, rec)
			}
		}(c, &per[i])
	}
	wg.Wait()
	t := tally{elapsed: time.Since(start)}
	for i := range per {
		t.add(&per[i])
	}
	return t
}

// one sends req, times it, and checks the answer. A transport error, a 5xx
// or a wrong answer counts as failed.
func (c *client) one(req request, began time.Time, t *tally, rec *recorder) {
	t.attempted++
	var rs int64
	if rec != nil {
		rs = rec.now()
	}
	start := time.Now()
	status, body, err := c.send(req)
	end := time.Now()
	t.lat = append(t.lat, int64(end.Sub(start)))
	t.done = append(t.done, int64(end.Sub(began)))
	if rec != nil {
		t.reqs = append(t.reqs, reqRec{start: rs, end: rec.now(), key: req.key})
	}
	if problem := verdict(req, status, body, err); problem != "" {
		t.failed++
		if t.firstFailure == "" {
			t.firstFailure = problem
		}
		return
	}
	if req.kind == reqCreate && req.fresh {
		t.acked = append(t.acked, req.key)
		t.ackedBytes += int64(len(req.key) + len(req.value))
	}
}

func (c *client) send(req request) (int, []byte, error) {
	var resp *http.Response
	var err error
	if req.kind == reqRead {
		resp, err = c.http.Get(c.base + "/entries/" + req.key + "?model=" + model)
	} else {
		body := `{"model":"` + model + `","key":"` + req.key + `","value":"` + req.value + `"}`
		resp, err = c.http.Post(c.base+"/entries", "application/json", strings.NewReader(body))
	}
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), err
}

// verdict returns "" when the response is the one req must get.
func verdict(req request, status int, body []byte, err error) string {
	switch {
	case err != nil:
		return "transport: " + err.Error()
	case req.kind == reqRead:
		want := `{"key":"` + req.key + `","value":"` + req.value + `"}` + "\n"
		if status != http.StatusOK || string(body) != want {
			return "GET " + req.key + ": got " + http.StatusText(status) + " " + string(body)
		}
	case req.fresh:
		if status != http.StatusOK || !bytes.HasPrefix(body, []byte(`{"id":`)) {
			return "POST fresh " + req.key + ": got " + http.StatusText(status) + " " + string(body)
		}
	default:
		if status != http.StatusUnprocessableEntity {
			return "POST existing " + req.key + ": got " + http.StatusText(status) + " " + string(body)
		}
	}
	return ""
}

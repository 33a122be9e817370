package main

import (
	"bytes"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gmreg/internal/tensor"
)

// openLoop drives Poisson arrivals from one scheduler goroutine to a fixed
// set of workers (one per connection). Arrivals are due on schedule whether
// or not earlier requests finished — independent users, not waiting callers
// — and every latency is measured from the request's due time, so a stall
// also charges the requests queued behind it. The scheduler's own lateness
// (timer overshoot) is reported separately: it is load-generator noise, not
// program latency.
type openLoop struct {
	workers int
	// send issues request i from worker w. span, when tracing, is the ID of
	// the request's send span, for the server to name as parent.
	send func(w, i int, span int64) error
	// grace is how long after the schedule ends queued requests may still
	// be sent; later ones are abandoned and counted as unsent.
	grace time.Duration
	tr    *tracer // nil: no spans
}

// loadResult is what one schedule measured.
type loadResult struct {
	sent   int
	failed int           // send returned an error
	unsent int           // still queued one grace period after the schedule ended
	busy   time.Duration // from the schedule start to the last success
	lat    []float64     // ms from due time, successful requests
	sendMS []float64     // ms from the actual send, successful requests
	late   []float64     // ms the scheduler woke after each due time
}

// run sends arrivals at rate for window, or until stop is closed (nil: run
// the whole window), and waits for every worker.
func (g *openLoop) run(rate float64, window time.Duration, stop <-chan struct{}, rng *tensor.RNG) loadResult {
	type arrival struct {
		i   int
		due time.Time
	}
	start := time.Now()
	end := start.Add(window)
	var schedEnd atomic.Int64
	schedEnd.Store(end.UnixNano())
	// Sized above any arrival count the window can hold (a Poisson count
	// exceeds its mean by 20% plus 64 with negligible odds), so the scheduler
	// never blocks on slow workers and the loop stays open.
	jobs := make(chan arrival, int(1.2*rate*window.Seconds())+64)
	var res loadResult

	go func() {
		defer close(jobs)
		timer := time.NewTimer(time.Hour)
		timer.Stop()
		due := start
		for i := 0; ; i++ {
			u := rng.Float64()
			if u <= 0 {
				u = 0x1p-53
			}
			due = due.Add(time.Duration(-math.Log(u) / rate * float64(time.Second)))
			if due.After(end) {
				return
			}
			if d := time.Until(due); d > 0 {
				timer.Reset(d)
				select {
				case <-timer.C:
				case <-stop:
					schedEnd.Store(time.Now().UnixNano())
					return
				}
			}
			res.late = append(res.late, float64(time.Since(due))/float64(time.Millisecond))
			jobs <- arrival{i, due}
		}
	}()

	parts := make([]loadResult, g.workers)
	var wg sync.WaitGroup
	for w := 0; w < g.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := &parts[w]
			for a := range jobs {
				if time.Now().UnixNano() > schedEnd.Load()+int64(g.grace) {
					p.unsent++
					continue
				}
				var reqID, sendID int64
				if g.tr != nil {
					reqID, sendID = g.tr.newID(), g.tr.newID()
				}
				sent := time.Now()
				err := g.send(w, a.i, sendID)
				done := time.Now()
				p.sent++
				if err != nil {
					p.failed++
					continue
				}
				p.busy = done.Sub(start)
				p.lat = append(p.lat, float64(done.Sub(a.due))/float64(time.Millisecond))
				p.sendMS = append(p.sendMS, float64(done.Sub(sent))/float64(time.Millisecond))
				if g.tr != nil {
					g.tr.record(reqID, 0, "load.request", a.due, done)
					g.tr.record(g.tr.newID(), reqID, "load.wait", a.due, sent)
					g.tr.record(sendID, reqID, "load.send", sent, done)
				}
			}
		}(w)
	}
	wg.Wait()
	for _, p := range parts {
		res.sent += p.sent
		res.failed += p.failed
		res.unsent += p.unsent
		res.busy = max(res.busy, p.busy)
		res.lat = append(res.lat, p.lat...)
		res.sendMS = append(res.sendMS, p.sendMS...)
	}
	return res
}

// httpClients returns n clients that each hold at most one keep-alive
// connection, so n is exactly the number of connections the load uses.
func httpClients(n int) []*http.Client {
	cs := make([]*http.Client, n)
	for i := range cs {
		cs[i] = &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}}
	}
	return cs
}

// closeClients drops the clients' idle connections.
func closeClients(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

// post sends one request and reads the whole response into buf.
func post(c *http.Client, url string, body []byte, span int64, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if span != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(span, 10))
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

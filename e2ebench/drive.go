package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
)

// record is what the timed phase leaves behind: per job the reference
// time (actual send in a closed loop, scheduled send in an open loop), the
// time its result event arrived and the event's raw data; per batch the
// POST round trip and how late the generator sent it.
type record struct {
	ref  []time.Time // per batch
	done []time.Time // per job; zero when no result arrived
	raw  [][]byte    // per job
	ack  []time.Duration
	lag  []time.Duration
	errs []string // per batch; "" when the batch streamed to completion

	start, end time.Time
}

// client is one generator connection: a transport allowed a single
// connection, so the generator holds at most as many connections as it
// has clients.
type client struct {
	http *http.Client
	base string
	buf  *bufio.Reader
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{http: &http.Client{Transport: tr}, base: base, buf: bufio.NewReaderSize(nil, 64<<10)}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// drive runs the workload's batches from len(clients) goroutines and
// returns once every batch has streamed its results (or failed). During
// the timed phase a goroutine only sends a pre-encoded batch, reads the
// acknowledgement and reads the batch's SSE result events; results are
// decoded and checked afterwards.
func drive(ctx context.Context, w *workload, clients []*client) *record {
	rec := &record{
		ref:  make([]time.Time, len(w.batches)),
		done: make([]time.Time, len(w.jobs)),
		raw:  make([][]byte, len(w.jobs)),
		ack:  make([]time.Duration, len(w.batches)),
		lag:  make([]time.Duration, len(w.batches)),
		errs: make([]string, len(w.batches)),
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	rec.start = time.Now()
	// Open loops start a little after the goroutines so the first
	// scheduled sends are not late by goroutine start-up.
	t0 := rec.start.Add(20 * time.Millisecond)
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastDone time.Time
			for {
				b := int(next.Add(1) - 1)
				if b >= len(w.batches) || ctx.Err() != nil {
					return
				}
				plan := &w.batches[b]
				if w.open {
					due := t0.Add(plan.at)
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
					rec.ref[b] = due
					rec.lag[b] = time.Since(due)
				} else {
					rec.ref[b] = time.Now()
					if !lastDone.IsZero() {
						rec.lag[b] = rec.ref[b].Sub(lastDone)
					}
				}
				if err := c.runBatch(ctx, plan, b, rec); err != nil {
					rec.errs[b] = err.Error()
				}
				lastDone = time.Now()
			}
		}()
	}
	wg.Wait()
	rec.end = time.Now()
	return rec
}

// runBatch submits one batch and follows its event stream to the end.
func (c *client) runBatch(ctx context.Context, plan *batchPlan, b int, rec *record) error {
	sent := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(plan.body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	rec.ack[b] = time.Since(sent)
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	var ack engine.SubmitResponse
	if err := json.Unmarshal(body, &ack); err != nil {
		return fmt.Errorf("submit response: %w", err)
	}
	if len(ack.JobIDs) != plan.hi-plan.lo {
		return fmt.Errorf("submit acknowledged %d jobs, sent %d", len(ack.JobIDs), plan.hi-plan.lo)
	}
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/batches/"+ack.BatchID+"/events", nil)
	if err != nil {
		return err
	}
	resp, err = c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: %s", resp.Status)
	}
	c.buf.Reset(resp.Body)
	var id []byte
	got, done := 0, false
	for {
		line, err := c.buf.ReadSlice('\n')
		if err != nil {
			if err == io.EOF && done {
				return nil
			}
			return fmt.Errorf("events: %d of %d results, then %v", got, len(ack.JobIDs), err)
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case bytes.HasPrefix(line, []byte("id: ")):
			id = append(id[:0], line[4:]...)
		case bytes.Equal(line, []byte("event: done")):
			done = true
		case bytes.HasPrefix(line, []byte("data: ")) && !done:
			now := time.Now()
			for k, jid := range ack.JobIDs {
				if string(id) == jid {
					j := plan.lo + k
					rec.done[j] = now
					rec.raw[j] = append([]byte(nil), line[6:]...)
					got++
					break
				}
			}
		}
	}
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"

	"teco/internal/server"
)

// serverGroup times a warm /run through the handler tree with no TCP in the
// way, and the client-side decode of its tables. Minus diskcache.get_us it
// is the server's self time on the warm path; the serve-warm latency minus
// it is loopback plus load generator, not the program.
var serverGroup = group{"server", []string{"server.handler_warm_us", "server.decode_tables_us"}, func(c *ctx) (map[string]float64, error) {
	dir, err := os.MkdirTemp(c.tmp, "srv-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	srv, err := server.New(server.Config{CacheDir: dir})
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	const url = "/run?id=layers&layers=12&cache_pct=40&prefetch=1"
	serve := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		return rec
	}
	cold := serve() // computes and stores; every later call is a cache hit
	if cold.Code != http.StatusOK {
		return nil, fmt.Errorf("cold request: status %d: %s", cold.Code, cold.Body)
	}
	const calls = 2000
	bad := 0
	warm := medianTime(9, func() {
		for i := 0; i < calls; i++ {
			if serve().Code != http.StatusOK {
				bad++
			}
		}
	})
	if bad > 0 {
		return nil, fmt.Errorf("%d warm requests failed", bad)
	}
	var resp server.Response
	if err := json.Unmarshal(serve().Body.Bytes(), &resp); err != nil || !resp.Cached {
		return nil, fmt.Errorf("warm reply not served from cache (err %v)", err)
	}
	var decErr error
	dec := medianTime(9, func() {
		for i := 0; i < calls; i++ {
			if _, err := server.DecodeTables(resp.Tables); err != nil {
				decErr = err
			}
		}
	})
	if decErr != nil {
		return nil, decErr
	}
	if err := srv.Drain(context.Background()); err != nil {
		return nil, err
	}
	return map[string]float64{
		"server.handler_warm_us":  float64(warm) / 1e3 / calls,
		"server.decode_tables_us": float64(dec) / 1e3 / calls,
	}, nil
}}

package server

import (
	"net/http"
	"net/url"
	"testing"

	"teco/internal/experiments"
)

// requestKey runs a GET query through the decode path handleRun takes
// before the cache: parse, validate, resolve the id, key. ok is false where
// the handler answers 400.
func requestKey(query string) (key uint64, ok bool) {
	r := &http.Request{Method: http.MethodGet, URL: &url.URL{RawQuery: query}}
	id, _, opt, err := parseRequest(r)
	if err != nil || opt.Validate() != nil {
		return 0, false
	}
	canonical, ok := experiments.Canonical(id)
	if !ok {
		return 0, false
	}
	return cacheKey(canonical, opt), true
}

// FuzzParseRequest: any query string is decoded without a panic; an
// accepted request keys the same when parsed twice, and keeps its key when
// any knob it sets to that knob's zero value is dropped (explicit zero ≡
// omitted). The seed corpus is the format museum's queries plus other
// spellings of zero.
func FuzzParseRequest(f *testing.F) {
	for _, row := range museumKeys {
		f.Add(row.query)
	}
	f.Add("id=faults&ber=-0&seed=-0&degrade=0&retry_budget=%2B0&cache_pct=00")
	f.Fuzz(func(t *testing.T, query string) {
		key, ok := requestKey(query)
		if !ok {
			return
		}
		if again, ok := requestKey(query); !ok || again != key {
			t.Fatalf("%q: second parse gave key %016x (ok=%v), first %016x", query, again, ok, key)
		}
		values := (&url.URL{RawQuery: query}).Query()
		for name, vs := range values {
			if name == "id" || name == "timeout_ms" {
				continue
			}
			var zero experiments.Options
			if zero.Set(name, vs[0]) != nil || zero != (experiments.Options{}) {
				continue
			}
			dropped := url.Values{}
			for n, v := range values {
				if n != name {
					dropped[n] = v
				}
			}
			if k, ok := requestKey(dropped.Encode()); !ok || k != key {
				t.Fatalf("%q: dropping %s=%q moved the key %016x -> %016x (ok=%v)", query, name, vs[0], key, k, ok)
			}
		}
	})
}

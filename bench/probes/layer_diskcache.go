package main

import (
	"bytes"
	"os"

	"teco/internal/diskcache"
)

// diskcacheGroup times the result cache at the serve workloads' payload
// size (~600 B of table JSON): durable Put (temp, fsync, rename, dirsync),
// Get (open, read, CRC), and Open over a populated directory, which is what
// a daemon restart pays.
var diskcacheGroup = group{"diskcache", []string{"diskcache.get_us", "diskcache.put_ms", "diskcache.open_ms_per_1k"}, func(c *ctx) (map[string]float64, error) {
	const entries = 500
	dir, err := os.MkdirTemp(c.tmp, "dc-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cache, err := diskcache.Open(diskcache.Config{Dir: dir})
	if err != nil {
		return nil, err
	}
	payload := bytes.Repeat([]byte(`{"ID":"layers","Rows":[["12","40%","1.17x"]]}`), 13)
	var ioErr error
	key := uint64(c.seed) << 20
	put := medianTime(entries, func() {
		key++
		if err := cache.Put(key, payload); err != nil {
			ioErr = err
		}
	})
	first := uint64(c.seed)<<20 + 1
	const gets = 4000
	get := medianTime(9, func() {
		for i := uint64(0); i < gets; i++ {
			if _, ok, err := cache.Get(first + i%entries); err != nil || !ok {
				ioErr = err
			}
		}
	})
	if err := cache.Close(); err != nil || ioErr != nil {
		return nil, firstErr(ioErr, err)
	}
	open := medianTime(5, func() {
		c2, err := diskcache.Open(diskcache.Config{Dir: dir})
		if err != nil {
			ioErr = err
			return
		}
		if c2.Len() != entries {
			ioErr = os.ErrNotExist
		}
		ioErr = firstErr(ioErr, c2.Close())
	})
	if ioErr != nil {
		return nil, ioErr
	}
	return map[string]float64{
		"diskcache.put_ms":         float64(put) / 1e6,
		"diskcache.get_us":         float64(get) / 1e3 / gets,
		"diskcache.open_ms_per_1k": float64(open) / 1e6 * 1000 / entries,
	}, nil
}}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

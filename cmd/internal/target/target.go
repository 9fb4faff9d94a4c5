// Package target adapts the store and the wire client to workload.Target,
// so cmd/dbbench and cmd/ycsb drive both through the one op loop,
// workload.Run.
package target

import (
	"errors"
	"time"

	"fcae"
)

// DB runs workload ops against an in-process store.
type DB struct{ DB *fcae.DB }

func (d DB) Get(key []byte) (bool, error) { return found(d.DB.Get(key)) }
func (d DB) Put(key, value []byte) error  { return d.DB.Put(key, value) }
func (d DB) Delete(key []byte) error      { return d.DB.Delete(key) }

// Scan ends with a damaged block's error rather than read as a short scan.
func (d DB) Scan(start []byte, limit int) (int, error) {
	it, err := d.DB.NewIterator()
	if err != nil {
		return 0, err
	}
	n := 0
	for ok := it.Seek(start); ok && n < limit; ok = it.Next() {
		n++
	}
	return n, errors.Join(it.Error(), it.Close())
}

// Client runs workload ops against a remote fcaeserver. A write the server
// sheds as busy (its stall-aware admission control) is retried, as a
// production client does during a write stall, and counted in BusyRetries.
type Client struct {
	Client  *fcae.Client
	retries int
}

func (c *Client) Get(key []byte) (bool, error) { return found(c.Client.Get(key)) }
func (c *Client) Put(key, value []byte) error {
	return c.retryBusy(func() error { return c.Client.Put(key, value) })
}
func (c *Client) Delete(key []byte) error {
	return c.retryBusy(func() error { return c.Client.Delete(key) })
}
func (c *Client) Scan(start []byte, limit int) (int, error) {
	kvs, err := c.Client.Scan(start, limit)
	return len(kvs), err
}
func (c *Client) BusyRetries() int { return c.retries }

// retryBusy retries write up to 200 times while the server sheds it, the
// backoff doubling from 1 ms to 64 ms.
func (c *Client) retryBusy(write func() error) error {
	backoff := time.Millisecond
	for attempt := 0; ; attempt++ {
		err := write()
		if !errors.Is(err, fcae.ErrServerBusy) || attempt >= 200 {
			return err
		}
		c.retries++
		time.Sleep(backoff)
		if backoff < 64*time.Millisecond {
			backoff *= 2
		}
	}
}

func found(_ []byte, err error) (bool, error) {
	if errors.Is(err, fcae.ErrNotFound) {
		return false, nil
	}
	return err == nil, err
}

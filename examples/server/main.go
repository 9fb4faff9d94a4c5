// Server example: run the network KV service in-process, drive it with
// the pipelined client, and scrape the admin plane — the same wiring
// `cmd/fcaeserver` and `cmd/ycsb -addr` use across processes.
package main

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"sync"

	"fcae"
)

func main() {
	dir, err := os.MkdirTemp("", "fcae-server-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Ephemeral ports keep the example self-contained; a real
	// deployment sets fixed addresses (see cmd/fcaeserver).
	// SyncWrites fsyncs every commit, which is where group commit pays:
	// writes arriving during one fsync share the next.
	srv, err := fcae.OpenServer(dir, fcae.Options{SyncWrites: true}, fcae.ServerConfig{
		Addr:      "127.0.0.1:0",
		AdminAddr: "127.0.0.1:0",
	})
	if err != nil {
		log.Fatal(err)
	}

	cl, err := fcae.DialServer(fcae.ClientOptions{
		Addr:        srv.Addr().String(),
		Conns:       2,
		MaxPipeline: 128,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Point ops over the wire.
	if err := cl.Put([]byte("city:hongkong"), []byte("7.4M")); err != nil {
		log.Fatal(err)
	}
	v, err := cl.Get([]byte("city:hongkong"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("city:hongkong = %s\n", v)

	// An atomic batch travels as one WRITE frame and one store commit.
	var batch fcae.ClientBatch
	batch.Put([]byte("city:tokyo"), []byte("13.9M"))
	batch.Put([]byte("city:delhi"), []byte("31.2M"))
	if err := cl.Write(&batch); err != nil {
		log.Fatal(err)
	}

	// Concurrent writers share commits: the store's writer queue groups
	// these 64 puts into fewer WAL records (group_commits below).
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				key := fmt.Sprintf("bulk:%d:%d", w, i)
				if err := cl.Put([]byte(key), []byte("x")); err != nil {
					log.Printf("put %s: %v", key, err)
				}
			}
		}(w)
	}
	wg.Wait()

	// Range scans stream back as one response frame.
	kvs, err := cl.Scan([]byte("city:"), 10)
	if err != nil {
		log.Fatal(err)
	}
	for _, kv := range kvs {
		fmt.Printf("scan: %s = %s\n", kv.Key, kv.Value)
	}

	// The admin plane serves liveness and the full metrics snapshot —
	// store counters and server counters in one registry.
	resp, err := http.Get("http://" + srv.AdminAddr().String() + "/metrics?format=text")
	if err != nil {
		log.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		log.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		for _, want := range []string{"server_requests ", "group_commits ", "grouped_writes "} {
			if strings.HasPrefix(line, want) {
				fmt.Println(line)
			}
		}
	}

	if err := cl.Close(); err != nil {
		log.Fatal(err)
	}
	// Close drains: stops accepting, finishes in-flight requests, then
	// closes the store.
	if err := srv.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("server drained and closed")
}

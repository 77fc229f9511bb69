// Operations: the full production-shaped job flow — the input graph is
// loaded from a file, the job runs with checkpointing and task stealing
// enabled, live progress is served over HTTP, and the results are written
// back to a file (§5.1's load-from / dump-to storage round trip; the paper
// uses HDFS only as that byte source and sink).
//
//	go run ./examples/operations
package main

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gminer"
	"gminer/internal/algo"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/metrics"
)

func main() {
	dir, err := os.MkdirTemp("", "gminer-operations-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 1. Ingest: store the dataset as a text adjacency list.
	input := filepath.Join(dir, "orkut-s.txt")
	if err := graph.SaveFile(input, gen.MustBuild(gen.Orkut, 0.5)); err != nil {
		log.Fatal(err)
	}

	// 2. Load.
	g, err := graph.LoadFile(input)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d vertices / %d edges from %s\n", g.NumVertices(), g.NumEdges(), input)

	// 3. Run maximum clique finding with the full production config.
	job, err := gminer.Start(g, algo.NewMaxClique(), gminer.Config{
		Workers:         4,
		Threads:         2,
		Stealing:        true,
		UseLSH:          true,
		CheckpointEvery: 20 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 4. Serve live progress over HTTP while the job runs.
	mon := metrics.NewMonitor(job)
	addr, err := mon.Start("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer mon.Stop()
	resp, err := http.Get("http://" + addr + "/status")
	if err != nil {
		log.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Printf("live status from http://%s/status (%d bytes of JSON)\n", addr, len(body))

	res, err := job.Wait()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("max clique: %v (in %v, %d tasks, %d stolen)\n",
		res.AggGlobal, res.Elapsed, res.Total.TasksDone, res.Total.Stolen)

	// 5. Dump results, one record per line, and read them back.
	output := filepath.Join(dir, "mcf.txt")
	var out strings.Builder
	for _, rec := range res.Records {
		out.WriteString(rec + "\n")
	}
	if err := os.WriteFile(output, []byte(out.String()), 0o644); err != nil {
		log.Fatal(err)
	}
	data, err := os.ReadFile(output)
	if err != nil {
		log.Fatal(err)
	}
	back := strings.Count(string(data), "\n")
	if back != len(res.Records) {
		log.Fatalf("read back %d records, wrote %d", back, len(res.Records))
	}
	fmt.Printf("wrote %d witness records to %s and read them back ✓\n", back, output)
}

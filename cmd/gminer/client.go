package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"gminer/internal/cli"
	"gminer/internal/server"
)

// runClient dispatches the thin-client subcommands against a running
// gminerd daemon: submit | status | result | cancel.
func runClient(cmd string, args []string) {
	switch cmd {
	case "submit":
		clientSubmit(args)
	case "status":
		clientStatus(args)
	case "result":
		clientResult(args)
	case "cancel":
		clientCancel(args)
	case "mutate":
		clientMutate(args)
	case "watch":
		clientWatch(args)
	default:
		fatal(fmt.Errorf("unknown command %q (want submit, status, result, cancel, mutate or watch)", cmd))
	}
}

func clientSubmit(args []string) {
	fs := flag.NewFlagSet("gminer submit", flag.ExitOnError)
	var (
		workloadSpec = cli.WorkloadFlags(fs)
		addr         = fs.String("addr", "http://127.0.0.1:7077", "gminerd base URL")
		id           = fs.String("id", "", "job id (empty: server picks one)")
		memCap       = fs.Int64("mem-budget", 0, "per-job memory budget in bytes (0: server default)")

		standing = fs.Bool("standing", false, "subscribe to the dynamic graph: after the baseline, the job emits per-epoch match deltas (needs a -dynamic daemon; see 'gminer watch')")
		epoch    = fs.Int64("epoch", 0, "pin the job to this graph epoch; the server rejects the submit with 409 if the graph has moved (0: any)")

		tenant   = fs.String("tenant", "", "tenant this job bills to (empty: \"default\")")
		priority = fs.Int("priority", 0, "scheduling weight within weighted-fair sharing, 1..16 (0: default 1)")
		deadline = fs.Duration("deadline", 0, "queue+run deadline; past it the job is shed or preempted (0: none)")
		budget   = fs.Duration("budget", 0, "compute budget in busy-thread time; over it the job is preempted (0: server default)")
		wait     = fs.Bool("wait", false, "block until the job finishes and print its final state")
		emit     = fs.Bool("emit", false, "with -wait: print result records (implies -wait)")
		outPath  = fs.String("out", "", "with -wait: write result records to this file (implies -wait)")
		poll     = fs.Duration("poll", 50*time.Millisecond, "status poll interval while waiting")
	)
	_ = fs.Parse(args)
	if *emit || *outPath != "" {
		*wait = true
	}

	spec := workloadSpec()
	spec.Standing, spec.Epoch = *standing, *epoch
	spec.Tenant, spec.Priority = *tenant, *priority
	spec.DeadlineSeconds, spec.BudgetSeconds = deadline.Seconds(), budget.Seconds()
	req := server.JobRequest{Spec: spec, ID: *id, MemBudgetBytes: *memCap}
	body, err := json.Marshal(req)
	if err != nil {
		fatal(err)
	}
	var st server.JobStatus
	if err := doJSON(http.MethodPost, base(*addr)+"/jobs", body, &st); err != nil {
		fatal(err)
	}
	fmt.Printf("job %s: %s\n", st.ID, st.State)
	if !*wait {
		return
	}

	// A standing job never goes terminal on its own: -wait means "wait for
	// the baseline", i.e. until it parks in the standing state.
	for !terminalState(st.State) && st.State != server.StateStanding {
		time.Sleep(*poll)
		if err := doJSON(http.MethodGet, base(*addr)+"/jobs/"+st.ID, nil, &st); err != nil {
			fatal(err)
		}
	}
	printStatus(st)
	if st.State != server.StateDone && st.State != server.StateStanding {
		os.Exit(1)
	}
	if *emit || *outPath != "" {
		fetchRecords(base(*addr), st.ID, *outPath, *emit)
	}
}

func clientStatus(args []string) {
	fs := flag.NewFlagSet("gminer status", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:7077", "gminerd base URL")
	_ = fs.Parse(args)

	if fs.NArg() == 0 { // no id: list every retained job
		var jobs []server.JobStatus
		if err := doJSON(http.MethodGet, base(*addr)+"/jobs", nil, &jobs); err != nil {
			fatal(err)
		}
		if len(jobs) == 0 {
			fmt.Println("no jobs")
			return
		}
		fmt.Printf("%-16s %-6s %-10s %10s %10s\n", "id", "app", "state", "tasks", "records")
		for _, j := range jobs {
			var tasks, records int64
			if j.Progress != nil {
				tasks, records = j.Progress.TasksDone, j.Progress.Results
			}
			state := j.State
			if j.Cached {
				state += " [cached]"
			}
			fmt.Printf("%-16s %-6s %-10s %10d %10d\n", j.ID, j.App, state, tasks, records)
		}
		return
	}
	var st server.JobStatus
	if err := doJSON(http.MethodGet, base(*addr)+"/jobs/"+fs.Arg(0), nil, &st); err != nil {
		fatal(err)
	}
	printStatus(st)
}

func clientResult(args []string) {
	fs := flag.NewFlagSet("gminer result", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:7077", "gminerd base URL")
	outPath := fs.String("out", "", "write records to this file instead of stdout")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("usage: gminer result [-addr URL] [-out FILE] JOB_ID"))
	}
	fetchRecords(base(*addr), fs.Arg(0), *outPath, *outPath == "")
}

func clientCancel(args []string) {
	fs := flag.NewFlagSet("gminer cancel", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:7077", "gminerd base URL")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("usage: gminer cancel [-addr URL] JOB_ID"))
	}
	var st server.JobStatus
	if err := doJSON(http.MethodDelete, base(*addr)+"/jobs/"+fs.Arg(0), nil, &st); err != nil {
		fatal(err)
	}
	fmt.Printf("job %s: %s\n", st.ID, st.State)
}

// fetchRecords downloads a finished job's record stream (the byte-exact
// equivalent of the single-shot CLI's -out file).
func fetchRecords(baseURL, id, outPath string, emit bool) {
	resp, err := http.Get(baseURL + "/jobs/" + id + "/result?format=text")
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		fatal(fmt.Errorf("result %s: %s: %s", id, resp.Status, strings.TrimSpace(string(b))))
	}
	if outPath != "" {
		if err := os.WriteFile(outPath, b, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("records file: %s\n", outPath)
	}
	if emit {
		_, _ = os.Stdout.Write(b)
	}
}

func printStatus(st server.JobStatus) {
	marker := ""
	if st.Cached {
		marker = " [cached]"
	}
	fmt.Printf("job %s (%s): %s%s\n", st.ID, st.App, st.State, marker)
	if st.Error != "" {
		fmt.Printf("  error:   %s\n", st.Error)
	}
	if st.Tenant != "" {
		line := fmt.Sprintf("  tenant:  %s  priority: %d  queue wait: %.3fs", st.Tenant, st.Priority, st.QueueWaitSeconds)
		if st.QueuePosition > 0 {
			line += fmt.Sprintf("  queue position: %d", st.QueuePosition)
		}
		if st.CostSeconds > 0 {
			line += fmt.Sprintf("  cost: %.3fs", st.CostSeconds)
		} else if st.CostEstimateSeconds > 0 {
			line += fmt.Sprintf("  est. cost: %.3fs", st.CostEstimateSeconds)
		}
		fmt.Println(line)
	}
	if st.Progress != nil {
		fmt.Printf("  elapsed: %.3fs  tasks: %d  records: %d  net: %dB  cache hit: %.1f%%\n",
			st.Progress.ElapsedSeconds, st.Progress.TasksDone, st.Progress.Results,
			st.Progress.NetBytes, 100*st.Progress.CacheHitRate)
	}
	for _, p := range st.Phases {
		fmt.Printf("  %-22s n=%-8d p50=%-12s p95=%-12s p99=%s\n",
			p.Component+"/"+p.Metric, p.Count, p.P50, p.P95, p.P99)
	}
}

func terminalState(s string) bool {
	switch s {
	case server.StateDone, server.StateFailed, server.StateCancelled,
		server.StatePreempted, server.StateShed:
		return true
	}
	return false
}

func base(addr string) string {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimRight(addr, "/")
}

// doJSON performs one API call; non-2xx responses surface the server's
// error body.
func doJSON(method, url string, body []byte, out any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var eb struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(b, &eb) == nil && eb.Error != "" {
			return fmt.Errorf("%s: %s", resp.Status, eb.Error)
		}
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(b)))
	}
	if out != nil {
		return json.Unmarshal(b, out)
	}
	return nil
}

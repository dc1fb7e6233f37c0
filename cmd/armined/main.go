// Command armined is the mining-as-a-service daemon: it ingests
// transaction batches over HTTP, re-mines them in the background through
// the engine registry's cost-based planner, and serves association rules
// and Prometheus metrics from an immutable published snapshot.
//
// Server mode:
//
//	armined -addr :8080 -support 0.01 -rules 0.5
//
// Client mode (used by the CI smoke test): stream an .ardb database into a
// running daemon and optionally wait for a snapshot covering it.
//
//	armined -ingest data.ardb -to http://localhost:8080 -wait-published
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/db"
	"repro/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "HTTP listen address")
		support  = flag.Float64("support", 0.01, "minimum support fraction for re-mines")
		conf     = flag.Float64("rules", 0.5, "minimum confidence for generated rules")
		maxCons  = flag.Int("max-consequent", 0, "max consequent size (0 = unbounded)")
		procs    = flag.Int("procs", serve.DefaultProcs(), "worker count for parallel engines; the default leaves one core to serving")
		algo     = flag.String("algo", "auto", "engine name, or auto for the cost-based planner")
		maxK     = flag.Int("maxk", 0, "max itemset size (0 = fixpoint)")
		interval = flag.Duration("remine-interval", 100*time.Millisecond, "debounce between re-mines")
		maxBatch = flag.Int("max-batch", 65536, "max transactions per ingest request")
		maxItems = flag.Int("max-tx-items", 4096, "max items per transaction")
		maxItem  = flag.Int64("max-item", 1<<20, "exclusive item-id upper bound (at most 2^31)")
		maxBody  = flag.Int64("max-body", 8<<20, "max ingest body bytes")

		ingest    = flag.String("ingest", "", "client mode: .ardb file to stream into a daemon")
		to        = flag.String("to", "http://localhost:8080", "client mode: daemon base URL")
		batchSize = flag.Int("batch", 4096, "client mode: transactions per ingest request")
		waitPub   = flag.Bool("wait-published", false, "client mode: wait until a snapshot covers the ingested data")
		waitFor   = flag.Duration("wait-timeout", 30*time.Second, "client mode: -wait-published timeout")
	)
	flag.Parse()

	if *ingest != "" {
		if err := runClient(*ingest, *to, *batchSize, *waitPub, *waitFor); err != nil {
			log.Fatalf("armined: %v", err)
		}
		return
	}
	cfg := serve.Config{
		Support: *support, MinConfidence: *conf, MaxConsequent: *maxCons,
		Procs: *procs, Engine: *algo, MaxK: *maxK,
		RemineInterval: *interval, MaxBatch: *maxBatch, MaxTxItems: *maxItems,
		MaxItem: *maxItem, MaxBodyBytes: *maxBody,
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "armined: %v\n", err)
		os.Exit(2)
	}
	if err := runServer(cfg, *addr); err != nil {
		log.Fatalf("armined: %v", err)
	}
}

// runServer runs the daemon until SIGINT/SIGTERM, then shuts down
// gracefully: stop accepting connections, drain in-flight queries, cancel
// the re-mine loop (a mine in flight stops cooperatively via MineCtx), and
// exit 0.
func runServer(cfg serve.Config, addr string) error {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	srv := serve.New(cfg)
	mineCtx, cancelMine := context.WithCancel(context.Background())
	defer cancelMine()
	go srv.Run(mineCtx)

	httpSrv := &http.Server{Addr: addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() {
		log.Printf("armined: listening on %s (support=%g conf=%g engine=%s procs=%d)",
			addr, cfg.Support, cfg.MinConfidence, cfg.Engine, cfg.Procs)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		cancelMine()
		srv.Wait()
		return err
	case <-ctx.Done():
	}
	log.Printf("armined: shutting down")
	// Drain in-flight HTTP first (queries finish against the still-valid
	// published snapshot), then cancel any mine in flight.
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("armined: shutdown: %v", err)
	}
	cancelMine()
	srv.Wait()
	log.Printf("armined: bye")
	return nil
}

// runClient streams an .ardb file into a daemon in batches and optionally
// polls /healthz until a published snapshot covers every ingested
// transaction.
func runClient(path, base string, batchSize int, waitPub bool, timeout time.Duration) error {
	d, err := db.ReadFile(path)
	if err != nil {
		return err
	}
	if batchSize <= 0 {
		batchSize = 4096
	}
	client := &http.Client{Timeout: 30 * time.Second}
	total := int64(0)
	for lo := 0; lo < d.Len(); lo += batchSize {
		hi := lo + batchSize
		if hi > d.Len() {
			hi = d.Len()
		}
		txs := make([][]int64, 0, hi-lo)
		for i := lo; i < hi; i++ {
			items := d.Items(i)
			row := make([]int64, len(items))
			for j, it := range items {
				row[j] = int64(it)
			}
			txs = append(txs, row)
		}
		body, err := json.Marshal(map[string][][]int64{"transactions": txs})
		if err != nil {
			return err
		}
		resp, err := client.Post(base+"/ingest", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		var ir struct {
			Accepted int    `json:"accepted"`
			Total    int64  `json:"total"`
			Error    string `json:"error"`
		}
		decErr := json.NewDecoder(resp.Body).Decode(&ir)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			return fmt.Errorf("ingest batch at %d: HTTP %d (accepted %d): %s", lo, resp.StatusCode, ir.Accepted, ir.Error)
		}
		if decErr != nil {
			return fmt.Errorf("ingest batch at %d: decode response: %v", lo, decErr)
		}
		total += int64(ir.Accepted)
	}
	fmt.Fprintf(os.Stdout, "ingested %d transactions\n", total)
	if !waitPub {
		return nil
	}
	deadline := time.Now().Add(timeout)
	for {
		gen, dbLen, err := health(client, base)
		if err == nil && dbLen >= total {
			fmt.Fprintf(os.Stdout, "published generation %d covering %d transactions\n", gen, dbLen)
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for a snapshot covering %d transactions (last: gen %d, dbLen %d, err %v)", total, gen, dbLen, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func health(client *http.Client, base string) (gen, dbLen int64, err error) {
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var h struct {
		Generation int64 `json:"generation"`
		DBLen      int64 `json:"dbLen"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return 0, 0, err
	}
	return h.Generation, h.DBLen, nil
}

// Command dirigent-serve hosts the multi-tenant QoS control service: many
// independent Dirigent simulations behind the internal/server JSON API,
// each tenant driven by its own worker goroutine, with live telemetry
// streaming (JSONL or SSE) and graceful shutdown.
//
// Usage:
//
//	dirigent-serve                       # serve on :8080
//	dirigent-serve -addr 127.0.0.1:9000  # custom listen address
//	dirigent-serve -max-tenants 64      # cap hosted simulations
//
// SIGINT or SIGTERM stops accepting requests and drains every tenant
// worker and subscriber stream; exit status 1 if the drain fails.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dirigent/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		maxTenants = flag.Int("max-tenants", 0, "max concurrent tenants (0 = default 256)")
	)
	flag.Parse()

	srv := server.New(server.Config{MaxTenants: *maxTenants})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Println("dirigent-serve listening on", ln.Addr())

	select {
	case <-ctx.Done():
		fmt.Println("shutting down")
	case err := <-errc:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Stop accepting requests, then drain tenant workers and subscriber
	// streams.
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		fmt.Fprintln(os.Stderr, "http shutdown:", err)
	}
	if err := srv.Shutdown(sctx); err != nil {
		fmt.Fprintln(os.Stderr, "tenant drain:", err)
		os.Exit(1)
	}
}

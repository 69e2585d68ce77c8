package load

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"dirigent/internal/server"
)

// StartLocal boots an in-process dirigent-serve on a loopback port and
// returns its base URL plus a shutdown function that drains the HTTP
// server and every tenant worker. It backs `dirigent-load -inproc`, the
// CI load smoke, and perfbench's served-tenant workloads, so none of them
// need an externally managed server.
func StartLocal(cfg server.Config) (baseURL string, shutdown func() error, err error) {
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("load: local server: %w", err)
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		// Serve returns ErrServerClosed on shutdown; anything else means
		// the listener died and replay calls will surface it.
		_ = hs.Serve(ln)
	}()
	shutdown = func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			return fmt.Errorf("load: local http shutdown: %w", err)
		}
		if err := srv.Shutdown(ctx); err != nil {
			return fmt.Errorf("load: local tenant drain: %w", err)
		}
		return nil
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}

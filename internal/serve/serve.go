// Package serve is what the serving commands share. Run is the
// lifecycle runner: start the HTTP server(s), run WAL recovery in the
// background while /readyz reports 503, wait for SIGTERM/SIGINT, drain
// gracefully (fail readiness, let in-flight requests finish) and persist
// the model on the way out; it also owns the promote triggers of a
// replica — SIGHUP and the promote-file poller both invoke the app's
// Promote hook in place, so a follower can be flipped to primary without
// restarting. On top of it, Flags and Main
// (flags.go, workload.go) hold the flag set, its validation and the
// primary / replica / registry wiring that serveclass and servecluster
// have in common, behind one Workload descriptor each command fills in.
package serve

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// promoteFilePoll is how often the promote-file path is checked.
const promoteFilePoll = 300 * time.Millisecond

// App describes one serving process. Only Addr and Handler are
// required; nil hooks are skipped.
type App struct {
	// Name prefixes log lines (the command name).
	Name string
	// Addr is the HTTP listen address.
	Addr string
	// Handler serves the workload's endpoints.
	Handler http.Handler
	// DrainTimeout bounds the graceful drain on SIGTERM/SIGINT.
	DrainTimeout time.Duration
	// Recover, when set, runs after the listener starts — WAL replay
	// happens while /healthz already answers and /readyz reports 503,
	// so load balancers see the instance come up without routing
	// traffic to it early. A recovery error shuts the process down.
	Recover func() error
	// SetDraining flips the workload's draining state so readiness
	// checks fail before in-flight requests are cut off.
	SetDraining func(bool)
	// Persist writes the model back out after the drain — the final
	// checkpoint (WAL truncation) and/or the legacy snapshot file.
	Persist func() error
	// Promote, when set, is invoked on SIGHUP or when PromoteFile
	// appears — the replica-to-primary flip. Errors are logged, not
	// fatal: a failed promote leaves the process serving as before.
	Promote func() error
	// PromoteFile, when non-empty, is polled for existence; when the
	// file appears it is removed and Promote is invoked. This is the
	// trigger for environments where delivering SIGHUP is awkward.
	PromoteFile string
	// ReplicateAddr, when non-empty, serves ReplicateHandler on a
	// second listener — the replication stream on its own port, so
	// follower traffic does not share the public one.
	ReplicateAddr string
	// ReplicateHandler is the handler for ReplicateAddr.
	ReplicateHandler http.Handler
}

// newHTTPServer builds a hardened http.Server: header-read and idle
// timeouts plus a header-size cap, so a slowloris client or an idle
// connection pile-up cannot exhaust the listener. No overall write
// timeout — the NDJSON streaming endpoints and /replicate are
// legitimately unbounded.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}
}

// Run drives the app's lifecycle and returns when the process should
// exit: nil after a clean signal-triggered drain, an error when a
// listener, recovery, or the final persist failed (Exit prefixes it
// with the command name).
func Run(a App) error {
	httpSrv := newHTTPServer(a.Addr, a.Handler)
	errc := make(chan error, 2)
	go func() { errc <- listenAndServe(httpSrv) }()

	var replSrv *http.Server
	if a.ReplicateAddr != "" && a.ReplicateHandler != nil {
		replSrv = newHTTPServer(a.ReplicateAddr, a.ReplicateHandler)
		go func() { errc <- fmt.Errorf("replicate listener: %w", listenAndServe(replSrv)) }()
	}

	recc := make(chan error, 1)
	recovered := a.Recover == nil
	if !recovered {
		go func() { recc <- a.Recover() }()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigc)

	// SIGHUP promotes — but only when a Promote hook exists: without
	// the handler registered, SIGHUP keeps its default disposition
	// (terminate), which is what a non-replica process should do.
	promc := make(chan struct{}, 1)
	if a.Promote != nil {
		hupc := make(chan os.Signal, 1)
		signal.Notify(hupc, syscall.SIGHUP)
		defer signal.Stop(hupc)
		go func() {
			for range hupc {
				select {
				case promc <- struct{}{}:
				default:
				}
			}
		}()
		if a.PromoteFile != "" {
			stopPoll := make(chan struct{})
			defer close(stopPoll)
			go pollPromoteFile(a.PromoteFile, promc, stopPoll)
		}
	}

	draining := false
	for !draining {
		select {
		case err := <-errc:
			return err
		case err := <-recc:
			if err != nil {
				return fmt.Errorf("recovery: %w", err)
			}
			recovered = true
		case <-promc:
			log.Printf("%s: promote requested", a.Name)
			if err := a.Promote(); err != nil {
				log.Printf("%s: promote: %v", a.Name, err)
			} else {
				log.Printf("%s: promoted to primary", a.Name)
			}
		case sig := <-sigc:
			log.Printf("received %v: draining (timeout %v)", sig, a.DrainTimeout)
			draining = true
		}
	}

	// Graceful drain: fail readiness checks first so load balancers
	// stop routing here, then let in-flight requests finish, then
	// persist.
	if a.SetDraining != nil {
		a.SetDraining(true)
	}
	ctx, cancel := context.WithTimeout(context.Background(), a.DrainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("%s: drain: %v", a.Name, err)
	}
	if replSrv != nil {
		// Replication streams never finish on their own; Close cuts them
		// and the followers reconnect elsewhere.
		replSrv.Close()
	}
	// A signal that landed mid-recovery waits for replay to settle —
	// persisting a half-replayed model would lose the unreplayed tail's
	// WAL coverage on the next checkpoint.
	if !recovered {
		if err := <-recc; err != nil {
			return fmt.Errorf("recovery: %w", err)
		}
	}
	if a.Persist != nil {
		return a.Persist()
	}
	return nil
}

// listenAndServe runs a server to completion, mapping the nil a closed
// server returns into an error the select loop can report.
func listenAndServe(s *http.Server) error {
	err := s.ListenAndServe()
	if err == nil {
		err = fmt.Errorf("listener closed")
	}
	return err
}

// pollPromoteFile watches for path to appear; when it does, the file is
// removed (so the trigger is one-shot) and a promote is requested.
func pollPromoteFile(path string, promc chan<- struct{}, stop <-chan struct{}) {
	tick := time.NewTicker(promoteFilePoll)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			if _, err := os.Stat(path); err != nil {
				continue
			}
			os.Remove(path)
			select {
			case promc <- struct{}{}:
			default:
			}
		}
	}
}

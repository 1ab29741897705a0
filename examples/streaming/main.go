// Streaming: serve a benchmark as one interleaved virtual file over real
// HTTP (throttled), load it non-strictly on the client with the stream
// loader — class-level verification as each global-data unit arrives,
// method-level verification as each body arrives — then execute the
// program and report how much earlier each method was runnable compared
// with a strict whole-file loader.
//
//	go run ./examples/streaming
package main

import (
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"nonstrict"
	"nonstrict/internal/jir"
	"nonstrict/internal/stream"
)

func main() {
	app, err := nonstrict.Benchmark("Hanoi")
	if err != nil {
		log.Fatal(err)
	}
	prog, err := jir.Compile(app.IR)
	if err != nil {
		log.Fatal(err)
	}
	order, ix, err := nonstrict.PredictStatic(prog)
	if err != nil {
		log.Fatal(err)
	}
	rp, _ := nonstrict.Restructure(prog, ix, order)
	writer, err := stream.NewWriter(rp, ix, order)
	if err != nil {
		log.Fatal(err)
	}

	// Server: the interleaved virtual file at ~8 KB/s, in flushed
	// 256-byte chunks (the first leaves at once).
	mux := http.NewServeMux()
	mux.HandleFunc("/app", func(w http.ResponseWriter, req *http.Request) {
		const chunk = 256
		paced := stream.PaceResponse(req.Context(), w, stream.NewPacer(8*1024, chunk), chunk)
		if _, err := writer.WriteTo(paced); err != nil {
			log.Printf("serve: %v", err)
		}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	defer srv.Close()

	// Client: non-strict loading with incremental verification.
	resp, err := http.Get("http://" + ln.Addr().String() + "/app")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()

	start := time.Now()
	loader := stream.NewLoader(rp.Name, rp.MainClass, nil)
	type arrival struct {
		ref nonstrict.Ref
		at  time.Duration
	}
	var ready []arrival
	classDone := map[string]time.Duration{}
	if err := loader.Load(resp.Body, func(e stream.Event) {
		switch e.Kind {
		case stream.MethodReady:
			ready = append(ready, arrival{ref: e.Method, at: time.Since(start)})
		case stream.ClassComplete:
			classDone[e.Class] = time.Since(start)
		}
	}); err != nil {
		log.Fatal(err)
	}
	total := time.Since(start)

	streamed, err := loader.Program()
	if err != nil {
		log.Fatal(err)
	}
	m, err := nonstrict.Execute(streamed, nonstrict.RunOptions{Args: app.TestArgs})
	if err != nil {
		log.Fatal(err)
	}
	if err := app.Check(m, false); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("streamed %d classes (%d units, %d bytes) over HTTP in %v\n",
		len(rp.Classes), writer.Units(), loader.Consumed(), total.Round(time.Millisecond))
	fmt.Printf("program verified incrementally, executed %d instructions, self-check ok\n\n", m.Steps())
	fmt.Printf("%-22s %12s %14s %10s\n", "method", "non-strict", "strict (file)", "earlier")
	for i, a := range ready {
		if i >= 8 {
			fmt.Printf("... and %d more\n", len(ready)-8)
			break
		}
		strictAt := classDone[a.ref.Class]
		fmt.Printf("%-22s %12v %14v %10v\n", a.ref,
			a.at.Round(time.Millisecond), strictAt.Round(time.Millisecond),
			(strictAt - a.at).Round(time.Millisecond))
	}
}

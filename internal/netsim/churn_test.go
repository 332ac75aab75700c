package netsim

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
)

// The churn test's four host groups: client g sends to server g+1.
func churnServer(g int) string { return fmt.Sprintf("g%d-srv", g) }
func churnClient(g int) string { return fmt.Sprintf("g%d-cli", g) }

// TestChurnStressRace hammers a running network with the dynamic control
// surface — fault flips, one-shot drops, stats snapshots — from racing
// goroutines. It asserts nothing beyond survival; its job is to give the
// -race gate (make race) something to bite on.
func TestChurnStressRace(t *testing.T) {
	clk := clock.NewSim()
	n := New(clk, 99)
	n.SetDefaultLink(LinkConfig{Delay: 2 * time.Millisecond, Loss: 0.01})
	for g := 0; g < 4; g++ {
		n.Listen(Addr(churnServer(g)+":1"), func(Packet) {})
	}
	for g := 0; g < 4; g++ {
		g := g
		host := churnClient(g)
		var tick func()
		tick = func() {
			n.Send(Packet{From: Addr(host + ":2"), To: Addr(churnServer((g+1)%4) + ":1"), Payload: []byte("x")})
			clk.AfterFunc(500*time.Microsecond, tick)
		}
		clk.AfterFunc(time.Millisecond, tick)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				host := churnClient(i % 4)
				switch (i + w) % 5 {
				case 0:
					n.SetHostDown(host, i%2 == 0)
				case 1:
					n.HostDown(host)
				case 2:
					n.DropNext(host, churnServer((i+1)%4), 1)
				case 3:
					n.Totals()
				case 4:
					n.Stats(host, churnServer((i+1)%4))
				}
			}
		}()
	}
	for r := 0; r < 40; r++ {
		clk.RunFor(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	for g := 0; g < 4; g++ {
		n.SetHostDown(churnClient(g), false)
	}
	clk.RunFor(20 * time.Millisecond)
}

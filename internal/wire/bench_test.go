package wire

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
)

// BenchmarkRoundTrip times a Get over loopback TCP against an in-memory
// backend, with depth Gets in flight on one client connection, and
// reports the read and write calls both ends make per Get.
func BenchmarkRoundTrip(b *testing.B) {
	for _, depth := range []int{1, 8} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			mb := newMemBackend()
			mb.data["k"] = make([]byte, 100)
			srv, err := NewServer(ServerConfig{Backend: mb})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			var calls connCalls
			go func() {
				for {
					c, err := l.Accept()
					if err != nil {
						return
					}
					srv.ServeConn(&countingConn{Conn: c, n: &calls})
				}
			}()
			defer l.Close()
			cl, err := NewClient(ClientConfig{
				Dial: func() (net.Conn, error) {
					c, err := net.Dial("tcp", l.Addr().String())
					if err != nil {
						return nil, err
					}
					return &countingConn{Conn: c, n: &calls}, nil
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			ctx := context.Background()
			if err := cl.Ping(ctx); err != nil {
				b.Fatal(err)
			}

			b.ReportAllocs()
			calls.reads.Store(0)
			calls.writes.Store(0)
			b.ResetTimer()
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < depth; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						if _, ok, err := cl.Get(ctx, []byte("k")); err != nil || !ok {
							b.Errorf("get: %v %v", ok, err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.ReportMetric(float64(calls.reads.Load()+calls.writes.Load())/float64(b.N), "syscalls/op")
		})
	}
}

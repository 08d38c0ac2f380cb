package bound

import (
	"context"
	"fmt"
	"testing"
)

// BenchmarkExactWorkers measures the blocked 2^n enumeration across worker
// counts at the acceptance scale n = 20 (32 blocks of 2^15 patterns).
func BenchmarkExactWorkers(b *testing.B) {
	col := heterogeneousColumn(20)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Exact(context.Background(), col, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

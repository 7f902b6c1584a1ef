// Command gomaxprocs prints the runtime's GOMAXPROCS, the host
// parallelism that scripts/bench_compile.sh records beside the
// benchmark numbers.
package main

import (
	"fmt"
	"runtime"
)

func main() {
	fmt.Println(runtime.GOMAXPROCS(0))
}

// Command fixture is the reader gate's test module: it reads what package
// fx exports.
package main

import (
	"fmt"

	"fixture/internal/fx"
)

func main() {
	fmt.Println(fx.Run())
}

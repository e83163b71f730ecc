// Command tool defines two flags: README.md names -named, nothing names
// the other.
package main

import (
	"flag"
	"fmt"

	"sidr/internal/lib"
)

func main() {
	named := flag.Int("named", 0, "a flag README.md names")
	planted := flag.Bool("planted", false, "a flag no reader names")
	flag.Parse()
	var s lib.Sizer = lib.Box{}
	var tagged interface{ Tag() string } = lib.Box{}
	fmt.Println(*named, *planted, lib.Used(), lib.Metrics, s.Size(), tagged.Tag(), lib.Bag{})
}

// Package regok keeps every registry surface consistent; regconsistent
// must stay silent here.
package regok

type Algorithm int

const (
	AlgoX Algorithm = iota
	AlgoY
)

func name(a Algorithm) string {
	switch a {
	case AlgoX:
		return "x"
	case AlgoY:
		return "y"
	}
	return "?"
}

var byName = map[string]Algorithm{
	"x": AlgoX,
	"y": AlgoY,
}

//dgsvet:exhaustive
var matrix = []Algorithm{AlgoX, AlgoY}

// partial is fine: only marked literals must be exhaustive.
var partial = []Algorithm{AlgoX}

//dgsvet:exhaustive
var names = [...]string{AlgoX: "x", AlgoY: "y"}

// partialNames is fine for the same reason.
var partialNames = [...]string{AlgoX: "x"}

type SessionSpec struct {
	Algo   string
	Config []byte
}

func RegisterAlgorithm(name string, f func()) {}

type part struct {
	name string
	fn   func()
}

func RegisterPartitioner(p part) {}

func PartitionWith(g any, name string, n int) {}

func init() {
	RegisterAlgorithm("gamma", nil)
	RegisterPartitioner(part{"ldg", func() {}})
}

func use() {
	_ = SessionSpec{Algo: "gamma"}
	_ = SessionSpec{Algo: "gamma", Config: []byte{1}}
	PartitionWith(nil, "ldg", 4)
	//lint:allow regconsistent — probing the unknown-name error path
	_ = SessionSpec{Algo: "deliberately-unknown"}
}

// Fixture for the canonfields analyzer, pipeline target: the
// stage-key functions (corpus/RunOn/runFrom) collectively miss Params'
// Extra field.
package pipeline

type Params struct {
	Seed    uint64
	Scale   float64
	Extra   int
	Workers int
	Miner   string
}

type Pipeline struct{}

func (p *Pipeline) corpus(pr Params) { // want `does not reference exported field Extra`
	_ = pr.Seed
	_ = pr.Scale
}

func (p *Pipeline) RunOn(pr Params) { p.runFrom(pr) }

func (p *Pipeline) runFrom(pr Params) { _ = pr.Scale }

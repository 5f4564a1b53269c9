module edgeslice/bench

go 1.24

require edgeslice v0.0.0

replace edgeslice => ../

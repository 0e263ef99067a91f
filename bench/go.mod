module teco/bench

go 1.22

require teco v0.0.0

replace teco => ../

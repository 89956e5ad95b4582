module tme4a/bench

go 1.22

require tme4a v0.0.0

replace tme4a => ../

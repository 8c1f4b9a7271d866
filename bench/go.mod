module hawccc/bench

go 1.22

require hawccc v0.0.0

replace hawccc => ../

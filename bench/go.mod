module benchpress/bench

go 1.22

require benchpress v0.0.0

replace benchpress => ../

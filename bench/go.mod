module nvbitgo/bench

go 1.22

require nvbitgo v0.0.0

replace nvbitgo => ../

module dlpic/tools/bench

go 1.24

require dlpic v0.0.0

replace dlpic => ../..

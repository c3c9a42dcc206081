type t = Flat

let to_string Flat = "flat"

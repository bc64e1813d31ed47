type policy = Reject | Lru | Random | Priority_aware

let all = [ Reject; Lru; Random; Priority_aware ]

let to_string = function
  | Reject -> "reject"
  | Lru -> "lru"
  | Random -> "random"
  | Priority_aware -> "priority"

let pp fmt p = Format.pp_print_string fmt (to_string p)

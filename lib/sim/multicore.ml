type t = { cores : int; loads : int array }

(* The same multiplicative hash NICs use for RSS-style spreading; any fixed
   hash works as long as it is flow-stable. *)
let rss_hash flow_id = flow_id * 0x9E3779B1 land max_int

let distribute ~cores census =
  if cores <= 0 then invalid_arg "Multicore.distribute: cores must be > 0";
  let loads = Array.make cores 0 in
  Hashtbl.iter
    (fun flow_id cycles ->
      let core = rss_hash flow_id mod cores in
      loads.(core) <- loads.(core) + cycles)
    census;
  { cores; loads }

let max_load t = Array.fold_left max 0 t.loads

let total_load t = Array.fold_left ( + ) 0 t.loads

type t = { cores : int; loads : int array }

(* Any fixed hash works as long as it is flow-stable and its low bits
   depend on every bit of the id: callers reduce it [mod cores]. *)
let rss_hash flow_id = Gf_util.Bitops.mix flow_id

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

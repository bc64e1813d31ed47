type t = { id : int; priority : int; fmatch : Gf_flow.Fmatch.t; action : Action.t }

let v ~id ~priority ~fmatch ~action = { id; priority; fmatch; action }

let equal a b =
  a.id = b.id && a.priority = b.priority
  && Gf_flow.Fmatch.equal a.fmatch b.fmatch
  && Action.equal a.action b.action

let same_behaviour a b =
  a.priority = b.priority
  && Gf_flow.Fmatch.equal a.fmatch b.fmatch
  && Action.equal a.action b.action

let pp fmt t =
  Format.fprintf fmt "[#%d p=%d %a -> %a]" t.id t.priority Gf_flow.Fmatch.pp t.fmatch
    Action.pp t.action

module Sset = Set.Make (String)

module Gset = struct
  type t = Sset.t

  let empty = Sset.empty
  let singleton = Sset.singleton
  let add = Sset.add
  let mem = Sset.mem
  let merge = Sset.union
  let cardinal = Sset.cardinal
  let elements = Sset.elements
end

module Lww = struct
  type t = { ts : int; node : int; value : string }

  let make ~ts ~node ~value = { ts; node; value }

  let merge a b =
    if a.ts > b.ts then a
    else if b.ts > a.ts then b
    else if a.node >= b.node then a
    else b

  let equal a b = a.ts = b.ts && a.node = b.node && a.value = b.value
end

module Smap = Map.Make (String)

module Lww_map = struct
  type t = Lww.t Smap.t

  let empty = Smap.empty

  let set t ~key v =
    Smap.update key
      (function None -> Some v | Some old -> Some (Lww.merge old v))
      t

  let get t ~key = Smap.find_opt key t

  let merge a b =
    Smap.union (fun _key x y -> Some (Lww.merge x y)) a b

  let cardinal = Smap.cardinal
  let equal a b = Smap.equal Lww.equal a b

  let delta t ~since = Smap.filter (fun _ (v : Lww.t) -> v.ts > since) t
  let bindings t = Smap.bindings t
end

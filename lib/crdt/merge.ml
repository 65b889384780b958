module Row_header = Gg_storage.Row_header
module Csn = Gg_storage.Csn

type outcome = Win | Lose | Already

let decide (row : Row_header.t) ~(meta : Meta.t) =
  if row.cen > meta.cen then
    invalid_arg "Merge.merge_header: row.cen > T.cen cannot happen"
  else if row.cen < meta.cen then Win
  else if Csn.equal row.csn meta.csn then Already
  else if row.sen = meta.sen then
    (* First write wins: the row keeps the smallest csn. *)
    if Csn.compare row.csn meta.csn > 0 then Win else Lose
  else if row.sen < meta.sen then Win (* shorter transaction wins *)
  else Lose

let merge_header row ~meta =
  match decide row ~meta with
  | Win ->
    Row_header.stamp row ~sen:meta.Meta.sen ~csn:meta.Meta.csn
      ~cen:meta.Meta.cen;
    Win
  | (Lose | Already) as o -> o

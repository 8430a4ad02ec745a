"""Workload scenes for the extract benchmark, built from public synthetic APIs.

Every scene places the bundled preset's five buildings (rect, L, U,
low-contrast rect, gabled) and its dark shadow strip; the workloads differ in
canvas size, tiling and solver mode, which moves the cost between the GVF
solve (pixels), the shape force (proposed mode only) and the per-building
snake loop (buildings).
"""
from __future__ import annotations

import dataclasses
from pathlib import Path

from buildsnake import lidar, raster, synthetic
from buildsnake.geometry import polygon_to_wkt

PRESET_PX = 512
TILE = 3


def preset(seed: int) -> synthetic.SceneSpec:
    """The bundled quebec-like scene; seed 7 is the shipped preset."""
    return synthetic.quebec_like_spec(seed=seed)


def sparse(seed: int) -> synthetic.SceneSpec:
    """The preset buildings at their preset positions on a 1024x1024 canvas."""
    return dataclasses.replace(preset(seed), size=(2 * PRESET_PX, 2 * PRESET_PX))


def tiled(seed: int) -> synthetic.SceneSpec:
    """A TILE x TILE tiling of the preset buildings and shadow at a 512 px pitch."""
    base = preset(seed)
    pitch = PRESET_PX * base.resolution
    buildings, shadows = [], []
    for row in range(TILE):
        for col in range(TILE):
            off = (col * pitch, row * pitch)
            buildings += [dataclasses.replace(b, footprint=b.footprint + off) for b in base.buildings]
            shadows += [dataclasses.replace(s, polygon=s.polygon + off) for s in base.shadows]
    side = TILE * PRESET_PX
    return dataclasses.replace(base, size=(side, side), buildings=buildings, shadows=shadows)


# workload name -> (scene builder, solver mode)
WORKLOADS = {
    "preset-proposed": (preset, "proposed"),
    "sparse-gvf": (sparse, "gvf"),
    "tiled-basic": (tiled, "basic"),
}

# Expected polygonize level for each synthetic building shape.
EXPECTED_LEVEL = {"rect": "rectangle", "gabled": "rectangle", "L": "LTZ", "U": "U"}


def write_scene(spec: synthetic.SceneSpec, outdir: Path) -> dict:
    """Render spec into the extract command's input files; return scene facts."""
    img, cloud, truth, t = synthetic.generate_scene(spec)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "scene.pgm").write_bytes(raster.save_pgm(img))
    (outdir / "cloud.xyz").write_text(lidar.write_xyz(cloud), encoding="utf-8")
    (outdir / "transform.txt").write_text(t.to_line() + "\n", encoding="utf-8")
    (outdir / "truth.wkt").write_text("".join(polygon_to_wkt(p) + "\n" for p in truth), encoding="utf-8")
    return {
        "size": list(spec.size),
        "pixels": int(img.size),
        "points": len(cloud),
        "buildings": len(truth),
        "shapes": [b.shape for b in spec.buildings],
    }

"""rotormesh: mesh motion and interface coupling toolkit for rotating
machinery CFD preprocessing."""

from .mesh import Mesh, MeshFormatError, extract_marker_points, parse_mesh, \
    write_mesh, write_vtk
from .geometry import MeshGeometry, QualityReport, cell_geometry, \
    orthogonality_metrics
from .kinematics import FlightCondition, MotionSeries, azimuth_matrix, \
    blade_normal_mach, blade_point, eval_series, grid_velocity_bdf2, \
    hinge_matrix
from .rbf import GreedyHistory, RbfConfig, RbfKernel, RbfSolution, \
    deform_mesh, evaluate_field, greedy_select, kernel_eval, solve_weights
from .supermesh import InterfaceFaceSet, Supermesh, build_supermesh, \
    clip_convex, interface_from_markers, polygon_area, weighted_exchange
from .hb import FrequencySet, SpectralOperator, build_operator, \
    choose_instances
from .config import MotionConfig, load_fixture, load_motion_config, \
    parse_motion_config

__version__ = "0.1.0"
